package tinymlops

import (
	"go/ast"
	"sort"
	"strings"
	"testing"
)

// standardMethods are method names a standard-library interface declares; a
// method so named may be called through that interface (fmt, errors,
// encoding, io), which no syntactic census sees.
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
// declared in a non-test file under internal/ stays iff something other than
// its own package's tests names it: any non-test file (its own package's
// production code included), any file of the frozen bench/ module, or another
// package's tests. A test is not a caller: an export only its own tests reach
// is deleted with them, or made private where the test keeps it as an oracle.
//
// A call x.M of a method resolves through x's declared type where the
// census's typeOf shows it: a field of that name is not the method, and a
// method found on the type (or a struct it embeds) is the one named.
// Elsewhere it counts for every method named M: the rule errs toward keeping.
// A method whose name an interface of the repository or a standard one
// declares counts as called. internal/wire/wiretest is test support by
// design and exempt.
func TestExportsAreLiveSurface(t *testing.T) {
	c := parseRepo(t)

	// declared["quant.Distill"], declared["offload.Replanner.Replans"]: every
	// exported function and method in scope, with the package it belongs to.
	declared := map[string]string{}
	methods := map[string]map[string]bool{} // "pkg.Type" → method names
	byName := map[string][]string{}         // method name → declared keys
	viaInterface := map[string]bool{}
	for name := range standardMethods {
		viaInterface[name] = true
	}
	for _, f := range c.files {
		if f.test {
			continue
		}
		ast.Inspect(f.ast, func(n ast.Node) bool {
			if it, ok := n.(*ast.InterfaceType); ok {
				for _, m := range it.Methods.List {
					for _, id := range m.Names {
						viaInterface[id.Name] = true
					}
				}
			}
			return true
		})
		if !c.internal[f.pkg] {
			continue
		}
		for _, d := range f.ast.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if fn.Recv == nil {
				if fn.Name.IsExported() {
					declared[f.pkg+"."+fn.Name.Name] = f.pkg
				}
				continue
			}
			typ := f.pkg + "." + receiverName(fn.Recv.List[0].Type)
			if methods[typ] == nil {
				methods[typ] = map[string]bool{}
			}
			methods[typ][fn.Name.Name] = true
			if fn.Name.IsExported() {
				key := typ + "." + fn.Name.Name
				declared[key] = f.pkg
				byName[fn.Name.Name] = append(byName[fn.Name.Name], key)
			}
		}
	}

	// method finds the type that declares name for a value of type typ, on
	// the type itself or through the structs it embeds.
	var method func(typ, name string) string
	method = func(typ, name string) string {
		if methods[typ][name] {
			return typ
		}
		if st := c.structs[typ]; st != nil {
			for _, e := range st.embeds {
				if owner := method(e, name); owner != "" {
					return owner
				}
			}
		}
		return ""
	}

	live := map[string]bool{}
	for name, keys := range byName {
		for _, key := range keys {
			live[key] = viaInterface[name]
		}
	}
	for _, f := range c.files {
		use := func(self, key string) {
			if pkg, ok := declared[key]; ok && key != self && !(f.test && f.pkg == pkg) {
				live[key] = true
			}
		}
		selected := map[*ast.Ident]bool{}
		c.walk(f, func(fn *ast.FuncDecl, env scope, n ast.Node) {
			self := ""
			if fn != nil {
				self = f.pkg + "." + fn.Name.Name
				if fn.Recv != nil {
					self = f.pkg + "." + receiverName(fn.Recv.List[0].Type) + "." + fn.Name.Name
				}
			}
			switch n := n.(type) {
			case *ast.FuncDecl:
				selected[n.Name] = true // the declaration, not a use
			case *ast.SelectorExpr:
				name := n.Sel.Name
				selected[n.Sel] = true
				if x, ok := n.X.(*ast.Ident); ok && f.imports[x.Name] != "" {
					use(self, f.imports[x.Name]+"."+name)
					return
				}
				if typ := c.typeOf(f, env, n.X); typ != "" {
					if declaring, _, _ := c.field(typ, name); declaring != "" {
						return // a field of that name, not the method
					}
					if owner := method(typ, name); owner != "" {
						use(self, owner+"."+name)
						return
					}
				}
				for _, key := range byName[name] {
					use(self, key)
				}
			case *ast.Ident:
				if !selected[n] {
					use(self, f.pkg+"."+n.Name)
				}
			}
		})
	}

	var dead []string
	for key, pkg := range declared {
		if !live[key] && pkg != "wire/wiretest" {
			dead = append(dead, key)
		}
	}
	sort.Strings(dead)
	if len(dead) > 0 {
		t.Fatalf("%d of %d exported functions and methods under internal/ are named only by their own package's tests; delete them with those tests, or make them private:\n  %s",
			len(dead), len(declared), strings.Join(dead, "\n  "))
	}
	t.Logf("exports: %d exported functions and methods under internal/, all named outside their own package's tests", len(declared))
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
