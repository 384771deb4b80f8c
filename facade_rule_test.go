package tinymlops

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestFacadeIsLiveSurface is the pin on this package's exported surface. A
// name is exported here iff
//
//   - a non-test file under cmd/ or examples/ references it, or
//   - a godoc example in example_test.go references it, or
//   - the declared signature of such a name mentions it (transitively).
//
// Nothing else decides what is public: to add a name, call it from the CLI,
// an example program or a godoc example; a name nobody calls fails here.
func TestFacadeIsLiveSurface(t *testing.T) {
	fset := token.NewFileSet()
	decls := facadeDecls(t, fset)

	live := map[string]bool{}
	var mark func(name string)
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			// pkg.Name: only the qualifier could be ours, and it never is.
			return false
		case *ast.Field:
			// Parameter and field names are not references; their types are.
			ast.Inspect(n.Type, visit)
			return false
		case *ast.Ident:
			mark(n.Name)
		}
		return true
	}
	mark = func(name string) {
		sig, exported := decls[name]
		if !exported || live[name] {
			return
		}
		live[name] = true
		for _, n := range sig {
			ast.Inspect(n, visit)
		}
	}

	callers := []string{"example_test.go"}
	for _, root := range []string{"cmd", "examples"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() && strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
				callers = append(callers, path)
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, path := range callers {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		local := ""
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == "tinymlops" {
				local = "tinymlops"
				if imp.Name != nil {
					local = imp.Name.Name
				}
			}
		}
		if local == "" {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if x, ok := sel.X.(*ast.Ident); ok && x.Name == local {
					mark(sel.Sel.Name)
				}
			}
			return true
		})
	}

	var dead []string
	for name := range decls {
		if !live[name] {
			dead = append(dead, name)
		}
	}
	sort.Strings(dead)
	if len(dead) > 0 {
		t.Fatalf("%d of %d exported names have no caller in cmd/, examples/ or example_test.go and appear in no live signature; delete them or call them:\n  %s",
			len(dead), len(decls), strings.Join(dead, "\n  "))
	}
	t.Logf("facade: %d exported names, all live", len(decls))
}

// facadeDecls parses this package's non-test files and returns, per exported
// top-level name, the syntax that makes up its declared signature: a
// function's type, a type's definition, a var or const's declared type.
func facadeDecls(t *testing.T, fset *token.FileSet) map[string][]ast.Node {
	t.Helper()
	pkgs, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	decls := map[string][]ast.Node{}
	add := func(id *ast.Ident, sig ...ast.Node) {
		if id.IsExported() {
			decls[id.Name] = sig
		}
	}
	for _, f := range pkgs["tinymlops"].Files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					add(d.Name, d.Type)
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						sig := []ast.Node{s.Type}
						if s.TypeParams != nil {
							sig = append(sig, s.TypeParams)
						}
						add(s.Name, sig...)
					case *ast.ValueSpec:
						for _, id := range s.Names {
							if s.Type != nil {
								add(id, s.Type)
							} else {
								add(id)
							}
						}
					}
				}
			}
		}
	}
	return decls
}
