package tinymlops

import (
	"go/ast"
	"go/types"
	"strings"
	"testing"
)

// keptFields are the rule's named exceptions, each with why it stays. An
// exception that names no field, or a field something now reads, fails the
// rule: it is stale.
var keptFields = map[string]string{
	// observe.UplinkBytes prices a record by these fields; dropping them
	// would re-price every telemetry byte count and chaos fingerprint.
	"observe.Record.DriftScore":   "priced by observe.UplinkBytes",
	"observe.Record.MaxLatencyUS": "priced by observe.UplinkBytes",
	"observe.Record.EnergyMJ":     "priced by observe.UplinkBytes",
	// The platform draws no randomness of its own, but the frozen bench/
	// module sets Seed in every core.Config it builds.
	"core.Config.Seed": "set by the frozen bench/",
	// select.golden pins the evaluations a decision carries; they are the
	// selector's "why", which the fleet's event ledger is to report.
	"selector.Decision.Evaluations": "pinned by select.golden",
	"selector.Evaluation.Reason":    "pinned by select.golden",
}

// TestFieldsAreLiveSurface is the pin on the fields of the internal surface,
// the fourth computed surface rule beside TestFacadeIsLiveSurface,
// TestOptionsAreLiveSurface and TestExportsAreLiveSurface. An exported field
// of a struct declared in a non-test file under internal/ stays iff a
// non-test file, any file of the frozen bench/ module or a godoc example in
// example_test.go reads it, or it is one of keptFields. A field only tests
// read is written for nobody: delete it with whatever exists only to compute
// it, or give it the reader its doc promises.
//
// Names resolve by type (see liveFields). A read is any use of the field but a
// composite-literal key, the left side of =, := or op=, the operand of ++ or
// --, and the x.F inside x.F = append(x.F, …). A value passed to a function
// of fmt or encoding/json, or to bench/'s jsonLen, reads every field it
// reaches; a value passed as an interface elsewhere (sort.Slice) does not.
func TestFieldsAreLiveSurface(t *testing.T) {
	live := liveFields(parseRepo(t))
	for key, why := range keptFields {
		if read, ok := live[key]; !ok || read {
			t.Errorf("keptFields names %s (%s), but it is no field, or a read one: drop the exception", key, why)
		}
		live[key] = true
	}
	if dead := deadKeys(live); len(dead) > 0 {
		t.Fatalf("%d of %d exported fields under internal/ are read only by tests; delete each with what only it computed, or give it a reader:\n  %s",
			len(dead), len(live), strings.Join(dead, "\n  "))
	}
	t.Logf("fields: %d exported struct fields under internal/, each read by non-test code, bench/ or a godoc example", len(live))
}

// fieldCases: writes are not reads, a value passed to fmt reads every field
// it holds, and a read counts for the one field it denotes. Every case
// fails both if writes counted as reads and if fmt's arguments were not
// expanded.
var fieldCases = []ruleCase{
	{name: "test-read", dead: []string{"mutant.T.F"}, files: map[string]string{
		"internal/mutant/x.go":      "import \"fmt\"\ntype T struct{ F int; In U }\ntype U struct{ G int }\nfunc New() T { return T{F: 1, In: U{G: 2}} }\nvar _ = fmt.Sprint(New().In)",
		"internal/mutant/x_test.go": "var _ = New().F"}},
	{name: "write-only", dead: []string{"mutant.T.Added", "mutant.T.Appended", "mutant.T.Counted"}, files: map[string]string{
		"internal/mutant/x.go": "import \"fmt\"\ntype T struct{ Counted, Added int; Appended []int; Shown U }\ntype U struct{ G int }\n" +
			"func (t *T) Step() string { t.Counted++; t.Added += 2; t.Appended = append(t.Appended, 1); t.Shown.G = 3; return fmt.Sprint(t.Shown) }"}},
	{name: "passed-as-any", dead: []string{"mutant.V.H"}, files: map[string]string{
		"internal/mutant/x.go": "import \"fmt\"\ntype T struct{ F int; In U }\ntype U struct{ G int }\ntype V struct{ H int }\n" +
			"func Show(t *T, v *V) string { t.F, t.In.G, v.H = 1, 2, 3; return fmt.Sprint(t) }"}},
	{name: "same-name", dead: []string{"mutant.B.F"}, files: map[string]string{
		"internal/mutant/x.go": "import \"fmt\"\ntype A struct{ F int }\ntype B struct{ F int }\nvar M = map[string]A{}\nfunc Set(b *B) { b.F = 1 }\nvar _ = fmt.Sprint(M[\"k\"])"}},
}

func TestFieldRuleResolvesByType(t *testing.T) {
	runCases(t, fieldCases, func(c *census) ([]string, error) { return deadKeys(liveFields(c)), nil })
}

// liveFields reports, for each exported field of a struct type declared in a
// non-test file under internal/ ("rollout.DeviceOutcome.RollbackErr"),
// whether a checked file or the godoc examples read it. Embedded fields are
// out of scope: they are how a type is composed, and a promoted selection
// never names them.
func liveFields(c *census) map[string]bool {
	fields := map[*types.Var]string{}
	for _, f := range c.checked {
		if !strings.HasPrefix(f.path, "internal/") {
			continue
		}
		ast.Inspect(f.ast, func(n ast.Node) bool {
			if ts, ok := n.(*ast.TypeSpec); ok {
				if st, ok := c.info.Defs[ts.Name].Type().Underlying().(*types.Struct); ok && !ts.Assign.IsValid() {
					for i := range st.NumFields() {
						if v := st.Field(i); v.Exported() && !v.Embedded() {
							fields[v] = f.pkg + "." + ts.Name.Name + "." + v.Name()
						}
					}
				}
			}
			return true
		})
	}
	live := map[string]bool{}
	for _, key := range fields {
		live[key] = false
	}

	// reach marks every field a value of type t holds, through pointers,
	// containers and nested structs.
	seen := map[types.Type]bool{}
	var reach func(t types.Type)
	reach = func(t types.Type) {
		if seen[t] {
			return
		}
		seen[t] = true
		switch t := t.(type) {
		case *types.Named:
			reach(t.Underlying())
		case *types.Pointer:
			reach(t.Elem())
		case *types.Slice:
			reach(t.Elem())
		case *types.Array:
			reach(t.Elem())
		case *types.Map:
			reach(t.Key())
			reach(t.Elem())
		case *types.Struct:
			for i := range t.NumFields() {
				if key := fields[t.Field(i).Origin()]; key != "" {
					live[key] = true
				}
				reach(t.Field(i).Type())
			}
		}
	}

	files := c.checked
	if c.example != nil {
		files = append(files[:len(files):len(files)], c.example)
	}
	for _, f := range files {
		writes := map[*ast.Ident]bool{}
		written := func(lhs ast.Expr) {
			if sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr); ok {
				writes[sel.Sel] = true
			}
		}
		ast.Inspect(f.ast, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.KeyValueExpr:
				if id, ok := n.Key.(*ast.Ident); ok {
					writes[id] = true
				}
			case *ast.IncDecStmt:
				written(n.X)
			case *ast.AssignStmt:
				for i, lhs := range n.Lhs {
					written(lhs)
					// x.F = append(x.F, …) grows F without reading it.
					if call, ok := ast.Unparen(n.Rhs[min(i, len(n.Rhs)-1)]).(*ast.CallExpr); ok && len(n.Lhs) == len(n.Rhs) && len(call.Args) > 0 {
						if fn, ok := c.named(call.Fun).(*types.Builtin); ok && fn.Name() == "append" && types.ExprString(call.Args[0]) == types.ExprString(lhs) {
							written(call.Args[0])
						}
					}
				}
			case *ast.CallExpr:
				if fn, ok := c.named(n.Fun).(*types.Func); ok && reflects(fn) {
					for _, arg := range n.Args {
						reach(c.info.TypeOf(arg))
					}
				}
			}
			return true
		})
		ast.Inspect(f.ast, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !writes[id] {
				if v, ok := c.info.Uses[id].(*types.Var); ok && v.IsField() && fields[v.Origin()] != "" {
					live[fields[v.Origin()]] = true
				}
			}
			return true
		})
	}
	return live
}

// reflects reports whether fn reads a value passed to it as an interface by
// reflection, every field it reaches: fmt's and encoding/json's functions and
// methods, and bench/'s jsonLen.
func reflects(fn *types.Func) bool {
	if fn.Pkg() == nil {
		return false // a method of the universe's error
	}
	p := fn.Pkg().Path()
	return p == "fmt" || p == "encoding/json" || p+"."+fn.Name() == "tinymlops/bench.jsonLen"
}

// named is what a call's operand names, unqualified: a function, method or
// builtin; nil for any other expression.
func (c *census) named(fun ast.Expr) types.Object {
	if sel, ok := ast.Unparen(fun).(*ast.SelectorExpr); ok {
		fun = sel.Sel
	}
	id, _ := ast.Unparen(fun).(*ast.Ident)
	return c.info.Uses[id]
}
