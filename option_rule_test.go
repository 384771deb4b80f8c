package tinymlops

import (
	"fmt"
	"go/ast"
	"go/types"
	"regexp"
	"strings"
	"testing"
)

// optionStruct names the structs the rule covers: every exported
// *Config, *Options, *Policy and *Spec struct under internal/.
var optionStruct = regexp.MustCompile(`(Config|Options|Policy|Spec)$`)

// keptOption is the rule's one named exception. selector.DefaultPolicy sets
// BatteryAware to true, while every pinned Policy{…} literal leaves it false —
// bench/matrix.go's schemePin among them — so a constant would change what
// bench/ serves.
const keptOption = "selector.Policy.BatteryAware"

// TestOptionsAreLiveSurface is the pin on the option surface, the sibling of
// TestFacadeIsLiveSurface. An exported field of an option struct under
// internal/ stays iff something sets it other than its own package's
// default-filling code: a non-test file (cmd/ and examples/ included) or any
// file of the frozen bench/ module. A test is not a caller: a field only
// tests set has one value in the program; make it a constant and delete what
// only it reached, its tests included.
//
// Names resolve by type, as in TestExportsAreLiveSurface (see liveOptions). A
// setter is a key of a composite literal, an assignment or a ++/-- that
// denotes the field, or a use of an exported method of an option struct that
// assigns it (a WithX builder). Default-filling code is, in the declaring
// package's non-test files, every such assignment (c.F = d) and every literal
// inside a function that returns the struct (DefaultPolicy). A pass-through
// (F: cfg.G, with G itself an option field) sets F only if something sets G.
func TestOptionsAreLiveSurface(t *testing.T) {
	live, structs, err := liveOptions(parseRepo(t))
	if err != nil {
		t.Fatal(err)
	}
	if dead := deadKeys(live); len(dead) > 0 {
		t.Fatalf("%d of %d option fields under internal/ are set by nothing but tests and their own package's default-filling code; make each a constant and delete what only it reached:\n  %s",
			len(dead), len(live), strings.Join(dead, "\n  "))
	}
	t.Logf("options: %d exported fields in %d option structs, each set by a non-test caller or bench/", len(live), structs)
}

// optionCases: a field set through a value the syntax cannot type is set
// for its own struct only.
var optionCases = []ruleCase{
	{name: "map-index", dead: []string{"mutant.AConfig.F"}, files: map[string]string{
		"internal/mutant/x.go":      "type AConfig struct{ F int }\ntype BConfig struct{ F int }\nvar M = map[string]BConfig{}",
		"internal/mutant/x_test.go": "var _ = AConfig{F: 1}",
		"internal/other/y.go":       "import \"tinymlops/internal/mutant\"\nfunc init() { x := mutant.M[\"k\"]; x.F = 1 }"}},
}

func TestOptionRuleResolvesByType(t *testing.T) {
	runCases(t, optionCases, func(c *census) ([]string, error) {
		live, _, err := liveOptions(c)
		return deadKeys(live), err
	})
}

// liveOptions reports, for each exported field of an option struct declared
// in a non-test file under internal/ ("offload.ReplanConfig.Every"), whether
// something other than its own package's default-filling code sets it, or it
// is keptOption, and counts the option structs. An unkeyed literal of an
// option struct is an error.
func liveOptions(c *census) (live map[string]bool, structs int, err error) {
	owners := map[*types.TypeName]string{} // option struct → "pkg.Type"
	fields := map[*types.Var]string{}      // its exported field → "pkg.Type.Field"
	for _, f := range c.checked {
		if !strings.HasPrefix(f.path, "internal/") {
			continue
		}
		for _, d := range f.ast.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, s := range gd.Specs {
				ts, ok := s.(*ast.TypeSpec)
				if !ok || ts.Assign.IsValid() || !ts.Name.IsExported() || !optionStruct.MatchString(ts.Name.Name) || f.pkg+"."+ts.Name.Name == "nn.LayerSpec" {
					continue // LayerSpec is a wire-format row, not an option
				}
				obj := c.info.Defs[ts.Name].(*types.TypeName)
				st, ok := obj.Type().Underlying().(*types.Struct)
				if !ok {
					continue
				}
				owners[obj] = f.pkg + "." + ts.Name.Name
				for i := range st.NumFields() {
					if v := st.Field(i); v.Exported() && !v.Embedded() {
						fields[v] = owners[obj] + "." + v.Name()
					}
				}
			}
		}
	}
	// optionField is the option field e, an identifier or a selector, denotes; ""
	// for anything else.
	optionField := func(e ast.Expr) string {
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

	// builder reports whether fn is an exported method of an option struct.
	builder := func(fn *types.Func) bool {
		recv := fn.Type().(*types.Signature).Recv()
		return recv != nil && fn.Exported() && owners[namedOf(recv.Type())] != ""
	}
	// defaults reports whether a setter of key in package own ("" outside
	// internal/) is in key's own package.
	defaults := func(own, key string) bool { return own != "" && strings.HasPrefix(key, own+".") }

	// A set is one setter of an option field that is not its own package's
	// default-filling code and, for a pass-through, the field it copies.
	type set struct{ field, source string }
	var sets []set
	builds := map[*types.Func][]string{} // a builder → the fields it assigns
	calls := map[*types.Func][]string{}  // a builder → the package of each file using it
	var unkeyed []string
	for _, f := range c.checked {
		own := ""
		if strings.HasPrefix(f.path, "internal/") {
			own = f.pkg
		}
		for _, d := range f.ast.Decls {
			var method *types.Func       // the builder the declaration is
			returns := map[string]bool{} // option structs the declaration returns
			if fn, ok := d.(*ast.FuncDecl); ok {
				obj := c.info.Defs[fn.Name].(*types.Func)
				if builder(obj) {
					method = obj
				}
				sig := obj.Type().(*types.Signature)
				for i := range sig.Results().Len() {
					returns[owners[namedOf(sig.Results().At(i).Type())]] = true
				}
			}
			assigned := func(lhs ast.Expr) {
				key := optionField(lhs)
				if key != "" && method != nil {
					builds[method] = append(builds[method], key)
				}
				if key != "" && !defaults(own, key) {
					sets = append(sets, set{field: key})
				}
			}
			ast.Inspect(d, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					for _, el := range n.Elts {
						kv, ok := el.(*ast.KeyValueExpr)
						if !ok {
							if owner := owners[namedOf(c.info.TypeOf(n))]; owner != "" {
								unkeyed = append(unkeyed, fmt.Sprintf("%s: unkeyed literal of option struct %s", c.fset.Position(el.Pos()), owner))
							}
							continue
						}
						key := optionField(kv.Key)
						if key == "" || defaults(own, key) && returns[key[:strings.LastIndexByte(key, '.')]] {
							continue
						}
						sets = append(sets, set{field: key, source: optionField(kv.Value)})
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						assigned(lhs)
					}
				case *ast.IncDecStmt:
					assigned(n.X)
				case *ast.Ident:
					if fn, ok := c.info.Uses[n].(*types.Func); ok && builder(fn.Origin()) {
						calls[fn.Origin()] = append(calls[fn.Origin()], own)
					}
				}
				return true
			})
		}
	}
	if len(unkeyed) > 0 {
		return nil, 0, fmt.Errorf("%s", strings.Join(unkeyed, "\n"))
	}
	for method, keys := range builds {
		for _, own := range calls[method] {
			for _, key := range keys {
				if !defaults(own, key) {
					sets = append(sets, set{field: key})
				}
			}
		}
	}

	// Least fixed point: direct setters first, then pass-throughs whose
	// source turned out to be set.
	live = map[string]bool{}
	for _, key := range fields {
		live[key] = key == keptOption
	}
	for changed := true; changed; {
		changed = false
		for _, s := range sets {
			if !live[s.field] && (s.source == "" || live[s.source]) {
				live[s.field], changed = true, true
			}
		}
	}
	return live, len(owners), nil
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
