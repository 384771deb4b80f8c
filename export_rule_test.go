package tinymlops

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"slices"
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
// declared in a non-test file under internal/ stays iff a non-test file (its
// own package's production code included) or any file of the frozen bench/
// module names it. A test is not a caller, whichever package it is in: an
// export only tests reach is deleted with them, or made private where its own
// package's test keeps it as an oracle.
//
// Names resolve by type (go/types, see liveExports): a use counts for the
// one function or method it denotes, however the value it is selected from
// was obtained, and never for another type's method of the same name. A
// method also counts as called where an interface of the repository that
// declares it may call it — a type whose method set holds the method, its
// own or promoted from an embedded field, implements that interface — or
// where a standard-library interface may (standardMethods).
// internal/wire/wiretest is test support by design and exempt.
func TestExportsAreLiveSurface(t *testing.T) {
	c := parseRepo(t)
	live, err := liveExports(c.fset, c.files)
	if err != nil {
		t.Fatal(err)
	}
	if dead := deadExports(live); len(dead) > 0 {
		t.Fatalf("%d of %d exported functions and methods under internal/ are named only by tests; delete them with those tests, or make them private:\n  %s",
			len(dead), len(live), strings.Join(dead, "\n  "))
	}
	t.Logf("exports: %d exported functions and methods under internal/, all named by non-test code or bench/", len(live))
}

// exportCases are in-memory packages under internal/, each a non-test file
// and a test file, with the exports the rule must find dead there.
var exportCases = []struct {
	name, src, test string
	dead            []string
}{
	{name: "same-name", dead: []string{"mutant.B.Max"}, // a map index is no value typeOf can type
		src:  "type A struct{}\nfunc (A) Max() int { return 0 }\ntype B struct{}\nfunc (B) Max() int { return 1 }\nvar _ = map[string]A{}[\"a\"].Max()",
		test: "func f() { _ = B{}.Max() }"},
	{name: "interface-name", dead: []string{"mutant.T.Apply"}, // T's Apply has Defense's name, not its signature
		src:  "type Defense interface{ Apply(x int) int }\ntype T struct{}\nfunc (T) Apply(x, y int) int { return x }\ntype U struct{}\nfunc (*U) Apply(x int) int { return x }",
		test: "func f() { _ = T{}.Apply(1, 2) }"},
}

// TestExportRuleResolvesByType runs the rule over each of exportCases: a
// method whose name another type's method or an interface shares, and that
// only a test reaches, is dead.
func TestExportRuleResolvesByType(t *testing.T) {
	for _, tc := range exportCases {
		t.Run(tc.name, func(t *testing.T) {
			fset := token.NewFileSet()
			var files []*repoFile
			for name, body := range map[string]string{"internal/mutant/x.go": tc.src, "internal/mutant/x_test.go": tc.test} {
				f, err := parseFile(fset, name, []byte("package mutant\n"+body))
				if err != nil {
					t.Fatal(err)
				}
				files = append(files, f)
			}
			live, err := liveExports(fset, files)
			if err != nil {
				t.Fatal(err)
			}
			if dead := deadExports(live); !slices.Equal(dead, tc.dead) {
				t.Errorf("dead exports\n  expected: %q\n  actual: %q", tc.dead, dead)
			}
		})
	}
}

// deadExports lists, sorted, the exports live does not keep, but for
// internal/wire/wiretest's.
func deadExports(live map[string]bool) []string {
	var dead []string
	for key, ok := range live {
		if !ok && !strings.HasPrefix(key, "wire/wiretest.") {
			dead = append(dead, key)
		}
	}
	sort.Strings(dead)
	return dead
}

// liveExports type-checks the program in files and reports, for each exported
// top-level function and method declared in a non-test file under internal/
// ("quant.Distill", "offload.Replanner.Replans"), whether it is live: a
// non-test file or a file of bench/ uses it outside its own body, or it is a
// method an interface may call.
func liveExports(fset *token.FileSet, files []*repoFile) (map[string]bool, error) {
	info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}, Types: map[ast.Expr]types.TypeAndValue{}}
	checked, err := typeCheck(fset, files, info)
	if err != nil {
		return nil, err
	}

	declared := map[*types.Func]string{}
	var named []*types.Named
	var ifaces []*types.Interface
	for _, f := range checked {
		ast.Inspect(f.ast, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.InterfaceType:
				if it := info.TypeOf(n).(*types.Interface); it.NumMethods() > 0 {
					ifaces = append(ifaces, it)
				}
			case *ast.TypeSpec:
				if t, ok := info.Defs[n.Name].Type().(*types.Named); ok && !types.IsInterface(t) {
					named = append(named, t)
				}
			}
			return true
		})
		if !strings.HasPrefix(f.path, "internal/") {
			continue
		}
		for _, d := range f.ast.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Name.IsExported() {
				key := f.pkg + "." + fn.Name.Name
				if fn.Recv != nil {
					key = f.pkg + "." + receiverName(fn.Recv.List[0].Type) + "." + fn.Name.Name
				}
				declared[info.Defs[fn.Name].(*types.Func)] = key
			}
		}
	}

	live := map[string]bool{}
	for fn, key := range declared {
		live[key] = fn.Type().(*types.Signature).Recv() != nil && standardMethods[fn.Name()]
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
	for _, f := range checked {
		for _, d := range f.ast.Decls {
			var self types.Object
			if fn, ok := d.(*ast.FuncDecl); ok {
				self = info.Defs[fn.Name]
			}
			ast.Inspect(d, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					if fn, ok := info.Uses[id].(*types.Func); ok && fn.Origin() != self && declared[fn.Origin()] != "" {
						live[declared[fn.Origin()]] = true
					}
				}
				return true
			})
		}
	}
	return live, nil
}

// TestPrivateFunctionsAreNotTestCode is the private counterpart of
// TestExportsAreLiveSurface: a private top-level function declared in a
// non-test file under internal/ stays there only if some non-test file of its
// package names it, other than its own body. One that only tests reach is
// test code: it moves into a _test.go file, or goes with its tests. init is
// exempt. Methods are out of scope; an interface may call them.
func TestPrivateFunctionsAreNotTestCode(t *testing.T) {
	c := parseRepo(t)
	shipped := func(f *repoFile) bool { return !f.test && c.internal[f.pkg] }

	declared := map[string]bool{} // "fed.weighFixed"
	for _, f := range c.files {
		if !shipped(f) {
			continue
		}
		for _, d := range f.ast.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil && !fn.Name.IsExported() && fn.Name.Name != "init" {
				declared[f.pkg+"."+fn.Name.Name] = true
			}
		}
	}
	live := map[string]bool{}
	for _, f := range c.files {
		if !shipped(f) {
			continue
		}
		for _, d := range f.ast.Decls {
			// A declaration's own name is not a use, nor is a function's
			// call to itself.
			var name *ast.Ident
			self := ""
			if fn, ok := d.(*ast.FuncDecl); ok {
				name = fn.Name
				if fn.Recv == nil {
					self = fn.Name.Name
				}
			}
			ast.Inspect(d, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && id != name && id.Name != self {
					live[f.pkg+"."+id.Name] = true
				}
				return true
			})
		}
	}

	var dead []string
	for key := range declared {
		if !live[key] {
			dead = append(dead, key)
		}
	}
	sort.Strings(dead)
	if len(dead) > 0 {
		t.Fatalf("%d of %d private functions under internal/ are named only by tests; move them into a _test.go file, or delete them with their tests:\n  %s",
			len(dead), len(declared), strings.Join(dead, "\n  "))
	}
	t.Logf("private functions: %d under internal/, all named by their package's non-test code", len(declared))
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

// typeCheck type-checks each package of files as the go tool builds it for
// this platform: the non-test files its build constraints admit, and for
// bench/ the test files too. The standard library comes from its export
// data, which one go list run locates. Sizes are go/types' 64-bit default on
// every platform, as bench/'s constants assume. It returns the files it
// checked; info holds what their identifiers denote.
func typeCheck(fset *token.FileSet, files []*repoFile, info *types.Info) ([]*repoFile, error) {
	ctxt := build.Default
	pkgs := map[string][]*ast.File{} // import path → files
	var checked []*repoFile
	var std []string
	for _, f := range files {
		ctxt.OpenFile = func(string) (io.ReadCloser, error) { return io.NopCloser(strings.NewReader(f.src)), nil }
		dir, name := path.Split(f.path)
		ok, err := ctxt.MatchFile(dir, name)
		if err != nil {
			return nil, err
		}
		if ok && (!f.test || f.pkg == "bench") && !strings.HasSuffix(f.ast.Name.Name, "_test") {
			p := path.Join("tinymlops", path.Dir(f.path))
			pkgs[p] = append(pkgs[p], f.ast)
			checked = append(checked, f)
			for _, p := range f.paths {
				if p != "tinymlops" && !strings.HasPrefix(p, "tinymlops/") {
					std = append(std, p)
				}
			}
		}
	}
	export := map[string]string{} // import path → export data file
	if len(std) > 0 {
		slices.Sort(std)
		out, err := exec.Command(filepath.Join(ctxt.GOROOT, "bin", "go"), append([]string{"list", "-deps", "-export", "-f", "{{.ImportPath}} {{.Export}}"}, slices.Compact(std)...)...).Output()
		if ee, ok := err.(*exec.ExitError); ok {
			return nil, fmt.Errorf("go list: %v: %s", err, ee.Stderr)
		} else if err != nil {
			return nil, err
		}
		for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
			p, file, _ := strings.Cut(line, " ")
			export[p] = file
		}
	}
	lib := importer.ForCompiler(token.NewFileSet(), "gc", func(p string) (io.ReadCloser, error) { return os.Open(export[p]) })
	done := map[string]*types.Package{}
	var imp importerFunc
	imp = func(p string) (*types.Package, error) {
		if pkgs[p] == nil {
			return lib.Import(p)
		}
		if done[p] == nil {
			conf := types.Config{Importer: imp}
			pkg, err := conf.Check(p, fset, pkgs[p], info)
			if err != nil {
				return nil, err
			}
			done[p] = pkg
		}
		return done[p], nil
	}
	for p := range pkgs {
		if _, err := imp(p); err != nil {
			return nil, err
		}
	}
	return checked, nil
}

// importerFunc is a types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
