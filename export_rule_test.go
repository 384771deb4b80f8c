package tinymlops

import (
	"go/ast"
	"go/token"
	"go/types"
	"path"
	"slices"
	"sort"
	"strings"
	"testing"
)

// standardMethods are method names a standard-library interface declares; a
// method so named may be called through that interface (fmt, errors,
// encoding, io), which no census of the repository sees.
var standardMethods = map[string]bool{
	"String": true, "GoString": true, "Format": true, "Error": true,
	"Unwrap": true, "Is": true, "As": true,
	"MarshalBinary": true, "UnmarshalBinary": true, "MarshalText": true,
	"UnmarshalText": true, "MarshalJSON": true, "UnmarshalJSON": true,
	"Read": true, "Write": true, "Close": true, "ReadFrom": true, "WriteTo": true,
}

// TestExportsAreLiveSurface is the pin on the internal surface, the third of
// the computed surface rules beside TestFacadeIsLiveSurface and
// TestOptionsAreLiveSurface. An exported top-level function or method
// declared in a non-test file under internal/ stays iff a non-test file (its
// own package's production code included) or any file of the frozen bench/
// module names it. A test is not a caller, whichever package it is in: an
// export only tests reach is deleted with them, or made private where its own
// package's test keeps it as an oracle.
//
// Names resolve by type (go/types, see liveFuncs): a use counts for the
// one function or method it denotes, however the value it is selected from
// was obtained, and never for another type's method of the same name. A
// method also counts as called where an interface of the repository that
// declares it may call it — a type whose method set holds the method, its
// own or promoted from an embedded field, implements that interface — or
// where a standard-library interface may (standardMethods).
// internal/wire/wiretest is test support by design and exempt.
func TestExportsAreLiveSurface(t *testing.T) {
	live := liveFuncs(parseRepo(t), true)
	if dead := deadKeys(live); len(dead) > 0 {
		t.Fatalf("%d of %d exported functions and methods under internal/ are named only by tests; delete them with those tests, or make them private:\n  %s",
			len(dead), len(live), strings.Join(dead, "\n  "))
	}
	t.Logf("exports: %d exported functions and methods under internal/, all named by non-test code or bench/", len(live))
}

// TestPrivateFunctionsAreNotTestCode is the private counterpart of
// TestExportsAreLiveSurface: a private top-level function declared in a
// non-test file under internal/ stays there only if some non-test file of its
// package uses it, other than its own body. One that only tests reach is
// test code: it moves into a _test.go file, or goes with its tests. init is
// exempt. Methods are out of scope; an interface may call them.
func TestPrivateFunctionsAreNotTestCode(t *testing.T) {
	live := liveFuncs(parseRepo(t), false)
	if dead := deadKeys(live); len(dead) > 0 {
		t.Fatalf("%d of %d private functions under internal/ are named only by tests; move them into a _test.go file, or delete them with their tests:\n  %s",
			len(dead), len(live), strings.Join(dead, "\n  "))
	}
	t.Logf("private functions: %d under internal/, all named by their package's non-test code", len(live))
}

// ruleCase is an in-memory repository, each file's body after its package
// clause by path, and what one surface rule must find dead there.
type ruleCase struct {
	name  string
	files map[string]string
	dead  []string
}

// exportCases: a method whose name another type's method or an interface
// shares, and that only a test reaches, is dead.
var exportCases = []ruleCase{
	{name: "same-name", dead: []string{"mutant.B.Max"}, files: map[string]string{ // a map index: no name says whose Max it is
		"internal/mutant/x.go":      "type A struct{}\nfunc (A) Max() int { return 0 }\ntype B struct{}\nfunc (B) Max() int { return 1 }\nvar _ = map[string]A{}[\"a\"].Max()",
		"internal/mutant/x_test.go": "func f() { _ = B{}.Max() }"}},
	{name: "interface-name", dead: []string{"mutant.T.Apply"}, files: map[string]string{ // T's Apply has Defense's name, not its signature
		"internal/mutant/x.go":      "type Defense interface{ Apply(x int) int }\ntype T struct{}\nfunc (T) Apply(x, y int) int { return x }\ntype U struct{}\nfunc (*U) Apply(x int) int { return x }",
		"internal/mutant/x_test.go": "func f() { _ = T{}.Apply(1, 2) }"}},
}

// privateCases: a local variable that shares a private function's name is
// not a use of it.
var privateCases = []ruleCase{
	{name: "shadowed", dead: []string{"mutant.helper"}, files: map[string]string{
		"internal/mutant/x.go":      "func helper() int { return 1 }\nfunc init() { helper := 1; _ = helper }",
		"internal/mutant/x_test.go": "var _ = helper()"}},
}

func TestExportRuleResolvesByType(t *testing.T) {
	runCases(t, exportCases, func(c *census) ([]string, error) { return deadKeys(liveFuncs(c, true)), nil })
}

func TestPrivateRuleResolvesByType(t *testing.T) {
	runCases(t, privateCases, func(c *census) ([]string, error) { return deadKeys(liveFuncs(c, false)), nil })
}

// runCases type-checks each case and compares what dead finds in it with
// what the case expects.
func runCases(t *testing.T, cases []ruleCase, dead func(*census) ([]string, error)) {
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fset := token.NewFileSet()
			var files []*repoFile
			for name, body := range tc.files {
				f, err := parseFile(fset, name, []byte("package "+path.Base(path.Dir(name))+"\n"+body))
				if err != nil {
					t.Fatal(err)
				}
				files = append(files, f)
			}
			c, err := typeCheck(fset, files)
			if err != nil {
				t.Fatal(err)
			}
			got, err := dead(c)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, tc.dead) {
				t.Errorf("dead\n  expected: %q\n  actual: %q", tc.dead, got)
			}
		})
	}
}

// deadKeys lists, sorted, the keys live does not keep.
func deadKeys(live map[string]bool) []string {
	var dead []string
	for key, ok := range live {
		if !ok {
			dead = append(dead, key)
		}
	}
	sort.Strings(dead)
	return dead
}

// liveFuncs reports, for each function declared in a non-test file under
// internal/ — with exported, each exported top-level function and method
// ("quant.Distill", "offload.Replanner.Replans"); without, each private
// top-level function but init ("fed.weighFixed") — whether it is live: a
// checked file uses it outside its own body, or it is a method an interface
// may call. internal/wire/wiretest's exports are live.
func liveFuncs(c *census, exported bool) map[string]bool {
	declared := map[*types.Func]string{}
	var named []*types.Named
	var ifaces []*types.Interface
	for _, f := range c.checked {
		ast.Inspect(f.ast, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.InterfaceType:
				if it := c.info.TypeOf(n).(*types.Interface); it.NumMethods() > 0 {
					ifaces = append(ifaces, it)
				}
			case *ast.TypeSpec:
				if t, ok := c.info.Defs[n.Name].Type().(*types.Named); ok && !types.IsInterface(t) {
					named = append(named, t)
				}
			}
			return true
		})
		if !strings.HasPrefix(f.path, "internal/") {
			continue
		}
		for _, d := range f.ast.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Name.IsExported() != exported || !exported && (fn.Recv != nil || fn.Name.Name == "init") {
				continue
			}
			key := f.pkg + "." + fn.Name.Name
			if fn.Recv != nil {
				key = f.pkg + "." + receiverName(fn.Recv.List[0].Type) + "." + fn.Name.Name
			}
			declared[c.info.Defs[fn.Name].(*types.Func)] = key
		}
	}

	live := map[string]bool{}
	for fn, key := range declared {
		live[key] = fn.Type().(*types.Signature).Recv() != nil && standardMethods[fn.Name()] || exported && strings.HasPrefix(key, "wire/wiretest.")
	}
	// An interface calls the methods it declares on every type that
	// implements it, a method promoted from an embedded field included.
	for _, t := range named {
		ptr := types.NewPointer(t)
		for _, it := range ifaces {
			if !types.Implements(ptr, it) {
				continue
			}
			for i := range it.NumMethods() {
				m, _, _ := types.LookupFieldOrMethod(ptr, false, it.Method(i).Pkg(), it.Method(i).Name())
				if key := declared[m.(*types.Func).Origin()]; key != "" {
					live[key] = true
				}
			}
		}
	}
	for _, f := range c.checked {
		for _, d := range f.ast.Decls {
			var self types.Object
			if fn, ok := d.(*ast.FuncDecl); ok {
				self = c.info.Defs[fn.Name]
			}
			ast.Inspect(d, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					if fn, ok := c.info.Uses[id].(*types.Func); ok && fn.Origin() != self && declared[fn.Origin()] != "" {
						live[declared[fn.Origin()]] = true
					}
				}
				return true
			})
		}
	}
	return live
}

// receiverName is the type name of a method receiver: T for T, *T, T[P] and
// *T[P, Q].
func receiverName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return receiverName(e.X)
	case *ast.IndexExpr:
		return receiverName(e.X)
	case *ast.IndexListExpr:
		return receiverName(e.X)
	case *ast.Ident:
		return e.Name
	}
	return ""
}
