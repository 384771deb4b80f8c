package tinymlops

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
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
	// Neither the platform nor a device draws randomness of its own, but
	// the frozen bench/ module sets Seed in every core.Config and
	// device.FleetSpec it builds.
	"core.Config.Seed":      "set by the frozen bench/",
	"device.FleetSpec.Seed": "set by the frozen bench/",
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

// TestFieldsAreSet is the write side of TestFieldsAreLiveSurface. An
// exported field under internal/ that non-test code, bench/ or a godoc
// example reads is written by a non-test file or any file of the frozen
// bench/ module (fieldWrites says what a write is). A field only tests write
// holds its zero value in every real run, so the branch that reads it is
// dead there and no test can tell: delete it with that branch, or give it
// the writer its doc promises. The log names the fields only bench/ writes.
func TestFieldsAreSet(t *testing.T) {
	unset, benchOnly := unsetFields(parseRepo(t))
	if len(unset) > 0 {
		t.Fatalf("%d exported fields under internal/ are read, but written by nothing but tests; delete each with the branch that reads it, or give it a writer:\n  %s",
			len(unset), strings.Join(unset, "\n  "))
	}
	t.Logf("fields: every read field under internal/ is written by non-test code or bench/; %d only by bench/:\n  %s",
		len(benchOnly), strings.Join(benchOnly, "\n  "))
}

// fieldSetCases: each write form counts, and a pass-through writes its field
// only once its source is written. Every case fails if reads counted as
// writes.
var fieldSetCases = []ruleCase{
	{name: "nested", dead: []string{"mutant.T.Off"}, files: map[string]string{ // as verify.InferenceProof.ProverStats is written
		"internal/mutant/x.go":      "type T struct{ In, Off U }\ntype U struct{ G int }\nfunc Add(t *T) int { t.In.G += 1; return t.In.G + t.Off.G }",
		"internal/mutant/x_test.go": "var _ = T{Off: U{}}"}},
	{name: "positional", dead: []string{"mutant.Q.C"}, files: map[string]string{ // in an elided &P
		"internal/mutant/x.go":      "type P struct{ A, B int }\ntype Q struct{ C int }\nvar V = []*P{{1, 2}}\nfunc Sum(q Q) int { return V[0].A + V[0].B + q.C }",
		"internal/mutant/x_test.go": "var _ = Q{C: 1}"}},
	{name: "address", dead: []string{"mutant.T.H"}, files: map[string]string{
		"internal/mutant/x.go":      "type T struct{ F, H int }\nfunc Get(t T) int { p := &t.F; *p = 1; return t.F + t.H }",
		"internal/mutant/x_test.go": "var _ = T{H: 1}"}},
	{name: "pointer-method", dead: []string{"mutant.T.H"}, files: map[string]string{
		"internal/mutant/x.go":      "type C struct{ n int }\nfunc (c *C) Inc() { c.n++ }\nfunc (c C) N() int { return c.n }\ntype T struct{ Count C; H int }\nfunc Step(t *T) int { t.Count.Inc(); return t.Count.N() + t.H }",
		"internal/mutant/x_test.go": "var _ = T{H: 1}"}},
	{name: "json-decode", dead: []string{"mutant.U.H"}, files: map[string]string{
		"internal/mutant/x.go":      "import \"encoding/json\"\ntype T struct{ F int }\ntype U struct{ H int }\nfunc Load(b []byte, u U) (int, error) { var t T; err := json.Unmarshal(b, &t); return t.F + u.H, err }",
		"internal/mutant/x_test.go": "var _ = U{H: 1}"}},
	{name: "pass-through", dead: []string{"mutant.A.G", "mutant.B.F"}, files: map[string]string{
		"internal/mutant/x.go":      "type A struct{ G int }\ntype B struct{ F int }\nfunc Pass(a A) B { return B{F: a.G} }\nfunc Use(b B) int { return b.F }",
		"internal/mutant/x_test.go": "var _ = A{G: 1}"}},
}

func TestFieldSetRuleResolvesByType(t *testing.T) {
	runCases(t, fieldSetCases, func(c *census) ([]string, error) {
		unset, _ := unsetFields(c)
		return unset, nil
	})
}

// unsetFields lists, sorted, the read fields (liveFields) that no write
// sets, and the read fields only bench/ writes.
func unsetFields(c *census) (unset, benchOnly []string) {
	read := liveFields(c)
	fields, _ := exportedFields(c)
	writes := fieldWrites(c, fields)
	set := func(bench bool) map[string]bool {
		live := map[string]bool{}
		for _, key := range fields {
			live[key] = false
		}
		settle(live, writes, func(w write) bool { return bench || !w.bench })
		return live
	}
	all, own := set(true), set(false)
	for key, r := range read {
		switch {
		case r && !all[key]:
			unset = append(unset, key)
		case r && !own[key]:
			benchOnly = append(benchOnly, key)
		}
	}
	sort.Strings(unset)
	sort.Strings(benchOnly)
	return unset, benchOnly
}

// A write is one place a checked file — non-test code or bench/ — sets an
// exported field under internal/.
type write struct {
	field  string // the field's key (exportedFields)
	source string // for a pass-through F: y.G, G's key; "" for any other write
	bench  bool   // in bench/
	// defaults marks the declaring package's default-filling code: in one
	// of its files, a write that is no literal, or a literal inside a
	// function that returns the literal's struct (DefaultPolicy).
	defaults bool
}

// fieldWrites is the one setter walk behind TestOptionsAreLiveSurface and
// TestFieldsAreSet. A write is a key or a position of a struct literal; the
// target of =, op=, ++ or --, and every field on its selector chain (x.F.G = v
// writes F and G); the operand of &; the operand of a pointer method used on
// a value (x.F.M() writes F); and every field a value passed to a decoding
// function of encoding/json, encoding/binary or encoding/gob reaches. Names
// resolve by type, so a write counts for the one field it denotes.
func fieldWrites(c *census, fields map[*types.Var]string) []write {
	var writes []write
	for _, f := range c.checked {
		own := ""
		if strings.HasPrefix(f.path, "internal/") {
			own = f.pkg
		}
		add := func(key, source string, filling bool) {
			if key != "" {
				writes = append(writes, write{field: key, source: source, bench: f.pkg == "bench",
					defaults: filling && own != "" && strings.HasPrefix(key, own+".")})
			}
		}
		chain := func(e ast.Expr) {
			for {
				switch x := ast.Unparen(e).(type) {
				case *ast.SelectorExpr:
					add(c.field(fields, x), "", true)
					e = x.X
				case *ast.IndexExpr:
					e = x.X
				case *ast.StarExpr:
					e = x.X
				default:
					return
				}
			}
		}
		for _, d := range f.ast.Decls {
			returns := map[*types.TypeName]bool{} // the structs the declaration returns
			if fn, ok := d.(*ast.FuncDecl); ok {
				res := c.info.Defs[fn.Name].Type().(*types.Signature).Results()
				for i := range res.Len() {
					returns[namedOf(res.At(i).Type())] = true
				}
			}
			ast.Inspect(d, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					t := c.info.TypeOf(n)
					if p, ok := t.Underlying().(*types.Pointer); ok {
						t = p.Elem() // an elided &T in []*T{{…}}
					}
					st, ok := t.Underlying().(*types.Struct)
					if !ok {
						break
					}
					filling := returns[namedOf(t)]
					for i, el := range n.Elts {
						if kv, ok := el.(*ast.KeyValueExpr); ok {
							add(c.field(fields, kv.Key), c.field(fields, kv.Value), filling)
						} else {
							add(fields[st.Field(i).Origin()], c.field(fields, el), filling)
						}
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						chain(lhs)
					}
				case *ast.IncDecStmt:
					chain(n.X)
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						chain(n.X)
					}
				case *ast.SelectorExpr:
					if fn, ok := c.info.Uses[n.Sel].(*types.Func); ok {
						if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
							_, byPointer := recv.Type().(*types.Pointer)
							_, onPointer := c.info.TypeOf(n.X).Underlying().(*types.Pointer)
							if byPointer && !onPointer {
								chain(n.X)
							}
						}
					}
				case *ast.CallExpr:
					if fn, ok := c.named(n.Fun).(*types.Func); ok && decodes(fn) {
						for _, arg := range n.Args {
							reach(c.info.TypeOf(arg), fields, map[types.Type]bool{}, func(key string) { add(key, "", true) })
						}
					}
				}
				return true
			})
		}
	}
	return writes
}

// namedOf is the type name of t, or of what t points to; nil for any other
// type.
func namedOf(t types.Type) *types.TypeName {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Origin().Obj()
	}
	return nil
}

// settle marks set each field of live that one of the writes admit keeps
// sets, to the least fixed point: direct writes first, then pass-throughs
// whose source turned out to be set. A source that live does not hold counts
// as set.
func settle(live map[string]bool, writes []write, admit func(write) bool) {
	for changed := true; changed; {
		changed = false
		for _, w := range writes {
			set, tracked := live[w.source]
			if done, ok := live[w.field]; ok && !done && (!tracked || set) && admit(w) {
				live[w.field], changed = true, true
			}
		}
	}
}

// decodes reports whether fn decodes into a value passed to it: a decoding
// function or method of encoding/json, encoding/binary or encoding/gob.
func decodes(fn *types.Func) bool {
	if fn.Pkg() == nil {
		return false
	}
	switch fn.Pkg().Path() {
	case "encoding/json", "encoding/binary", "encoding/gob":
		return strings.HasPrefix(fn.Name(), "Unmarshal") || strings.HasPrefix(fn.Name(), "Decode") || fn.Name() == "Read"
	}
	return false
}

// liveFields reports, for each exported field of a struct type declared in a
// non-test file under internal/ (see exportedFields), whether a checked file
// or the godoc examples read it.
func liveFields(c *census) map[string]bool {
	fields, _ := exportedFields(c)
	live := map[string]bool{}
	for _, key := range fields {
		live[key] = false
	}
	seen := map[types.Type]bool{}
	read := func(key string) { live[key] = true }

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
						reach(c.info.TypeOf(arg), fields, seen, read)
					}
				}
			}
			return true
		})
		ast.Inspect(f.ast, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !writes[id] {
				if key := c.field(fields, id); key != "" {
					read(key)
				}
			}
			return true
		})
	}
	return live
}

// exportedFields keys every exported field of a struct type declared in a
// non-test file under internal/ ("rollout.DeviceOutcome.RollbackErr"), and
// every such struct type ("rollout.DeviceOutcome"). Embedded fields are out
// of scope: they are how a type is composed, and a promoted selection never
// names them.
func exportedFields(c *census) (fields map[*types.Var]string, structs map[*types.TypeName]string) {
	fields, structs = map[*types.Var]string{}, map[*types.TypeName]string{}
	for _, f := range c.checked {
		if !strings.HasPrefix(f.path, "internal/") {
			continue
		}
		ast.Inspect(f.ast, func(n ast.Node) bool {
			if ts, ok := n.(*ast.TypeSpec); ok && !ts.Assign.IsValid() {
				obj := c.info.Defs[ts.Name].(*types.TypeName)
				if st, ok := obj.Type().Underlying().(*types.Struct); ok {
					structs[obj] = f.pkg + "." + ts.Name.Name
					for i := range st.NumFields() {
						if v := st.Field(i); v.Exported() && !v.Embedded() {
							fields[v] = structs[obj] + "." + v.Name()
						}
					}
				}
			}
			return true
		})
	}
	return fields, structs
}

// field is the key of the field e, an identifier or a selector, denotes; ""
// for anything else.
func (c *census) field(fields map[*types.Var]string, e ast.Expr) string {
	if sel, ok := e.(*ast.SelectorExpr); ok {
		e = sel.Sel
	}
	id, _ := e.(*ast.Ident)
	v, _ := c.info.Uses[id].(*types.Var)
	if v == nil {
		return ""
	}
	return fields[v.Origin()]
}

// reach calls mark with every field a value of type t holds, through
// pointers, containers and nested structs, skipping the types in seen.
func reach(t types.Type, fields map[*types.Var]string, seen map[types.Type]bool, mark func(key string)) {
	if seen[t] {
		return
	}
	seen[t] = true
	switch t := t.(type) {
	case *types.Named:
		reach(t.Underlying(), fields, seen, mark)
	case *types.Pointer:
		reach(t.Elem(), fields, seen, mark)
	case *types.Slice:
		reach(t.Elem(), fields, seen, mark)
	case *types.Array:
		reach(t.Elem(), fields, seen, mark)
	case *types.Map:
		reach(t.Key(), fields, seen, mark)
		reach(t.Elem(), fields, seen, mark)
	case *types.Struct:
		for i := range t.NumFields() {
			if key := fields[t.Field(i).Origin()]; key != "" {
				mark(key)
			}
			reach(t.Field(i).Type(), fields, seen, mark)
		}
	}
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
