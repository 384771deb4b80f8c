package tinymlops

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
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
// The census is syntactic (go/parser, no type checker). A setter is a keyed
// element of a composite literal of the struct, an assignment or ++/--
// through a selector naming the field, or a call of an exported method of
// the struct that assigns it (a WithX builder). Default-filling code
// is, in the declaring package's non-test files, every such assignment
// (c.F = d) and every literal inside a function that returns the struct
// (DefaultPolicy). A pass-through (F: cfg.G, with G itself an option field)
// sets F only if something sets G.
//
// Whose field x.F is comes from x's declared type where the enclosing
// function shows it (a parameter, var x T, x := T{...}, a field of such a
// value). Where it does not — an elided literal type, the result of a call —
// the match counts for every option struct with a field of that name that
// the file can reach through its imports: the rule errs toward keeping.
func TestOptionsAreLiveSurface(t *testing.T) {
	c := parseRepo(t)

	// options["offload.ReplanConfig"] is the struct's exported field set;
	// byName indexes the same fields by bare field name.
	options := map[string]map[string]bool{}
	byName := map[string][]string{}
	total := 0
	for owner, st := range c.structs {
		pkg, name, _ := strings.Cut(owner, ".")
		if !c.internal[pkg] || !ast.IsExported(name) || !optionStruct.MatchString(name) || owner == "nn.LayerSpec" {
			continue // LayerSpec is a wire-format row, not an option
		}
		options[owner] = map[string]bool{}
		for field := range st.fields {
			if ast.IsExported(field) {
				options[owner][field] = true
				byName[field] = append(byName[field], owner)
				total++
			}
		}
	}

	// A set is one syntactic setter: the fields it may be setting, the
	// package whose fields it does not count for because it is that
	// package's default-filling code ("" when it is nobody's) and, for a
	// pass-through, the option field it is known to copy.
	type set struct {
		owners   []string
		field    string
		defaults string
		source   string
	}
	var sets []set
	// builders["WithX"] lists the fields an exported method of an option
	// struct assigns; calls["WithX"] lists, per call of a method so named,
	// the package the call is default-filling code of. A call sets the fields.
	builders := map[string][]set{}
	calls := map[string][]string{}
	for _, f := range c.files {
		if f.test && f.pkg != "bench" {
			continue
		}
		own := ""
		if !f.test && c.internal[f.pkg] {
			own = f.pkg
		}
		// candidates lists the option structs x.field may belong to; known
		// reports that x's type was inferred, so an empty list means "not an
		// option field" and not "could be anyone's".
		candidates := func(env scope, x ast.Expr, field string) (owners []string, known bool) {
			if declaring, _, ok := c.field(c.typeOf(f, env, x), field); ok {
				if options[declaring][field] {
					return []string{declaring}, true
				}
				return nil, true
			}
			for _, owner := range byName[field] {
				if pkg, _, _ := strings.Cut(owner, "."); f.reach[pkg] {
					owners = append(owners, owner)
				}
			}
			return owners, false
		}
		assigned := func(fn *ast.FuncDecl, env scope, lhs ast.Expr) {
			sel, ok := lhs.(*ast.SelectorExpr)
			if !ok {
				return
			}
			owners, _ := candidates(env, sel.X, sel.Sel.Name)
			sets = append(sets, set{owners: owners, field: sel.Sel.Name, defaults: own})
			if fn != nil && fn.Recv != nil && fn.Name.IsExported() && own != "" &&
				options[c.resolve(f, fn.Recv.List[0].Type)] != nil {
				builders[fn.Name.Name] = append(builders[fn.Name.Name], set{owners: owners, field: sel.Sel.Name})
			}
		}
		c.walk(f, func(fn *ast.FuncDecl, env scope, n ast.Node) {
			switch n := n.(type) {
			case *ast.CompositeLit:
				var owners []string // nil: elided type, any reachable struct with the field
				defaults := ""
				if n.Type != nil {
					owner := c.resolve(f, n.Type)
					if options[owner] == nil {
						return
					}
					owners = []string{owner}
					if fn != nil && fn.Type.Results != nil && own != "" {
						for _, r := range fn.Type.Results.List {
							if c.resolve(f, r.Type) == owner {
								defaults = own
							}
						}
					}
				}
				for _, el := range n.Elts {
					kv, ok := el.(*ast.KeyValueExpr)
					if !ok {
						if owners != nil {
							t.Errorf("%s: unkeyed literal of option struct %s", c.fset.Position(el.Pos()), owners[0])
						}
						continue
					}
					key, ok := kv.Key.(*ast.Ident)
					if !ok {
						continue
					}
					s := set{owners: owners, field: key.Name, defaults: defaults}
					if owners == nil {
						s.owners, _ = candidates(nil, nil, key.Name)
					}
					if sel, ok := kv.Value.(*ast.SelectorExpr); ok {
						if srcs, known := candidates(env, sel.X, sel.Sel.Name); known && srcs != nil {
							s.source = srcs[0] + "." + sel.Sel.Name
						}
					}
					sets = append(sets, s)
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					assigned(fn, env, lhs)
				}
			case *ast.IncDecStmt:
				assigned(fn, env, n.X)
			case *ast.CallExpr:
				if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
					calls[sel.Sel.Name] = append(calls[sel.Sel.Name], own)
				}
			}
		})
	}
	for method, assigns := range builders {
		for _, own := range calls[method] {
			for _, b := range assigns {
				b.defaults = own
				sets = append(sets, b)
			}
		}
	}

	// Least fixed point: direct setters first, then pass-throughs whose
	// source turned out to be set.
	live := map[string]bool{}
	for changed := true; changed; {
		changed = false
		for _, s := range sets {
			if s.source != "" && !live[s.source] {
				continue
			}
			for _, owner := range s.owners {
				key := owner + "." + s.field
				if pkg, _, _ := strings.Cut(owner, "."); options[owner][s.field] && !live[key] && pkg != s.defaults {
					live[key], changed = true, true
				}
			}
		}
	}

	var dead []string
	for owner, fields := range options {
		for field := range fields {
			if !live[owner+"."+field] && owner+"."+field != keptOption {
				dead = append(dead, owner+"."+field)
			}
		}
	}
	sort.Strings(dead)
	if len(dead) > 0 {
		t.Fatalf("%d of %d option fields under internal/ are set by nothing but tests and their own package's default-filling code; make each a constant and delete what only it reached:\n  %s",
			len(dead), total, strings.Join(dead, "\n  "))
	}
	t.Logf("options: %d exported fields in %d option structs, each set by a non-test caller or bench/", total, len(options))
}

// repoFile is one parsed .go file of the repository.
type repoFile struct {
	ast  *ast.File
	path string // slash-separated, relative to the repository root
	src  string
	// pkg keys the file's package: its name under internal/ ("offload"), "."
	// for the facade, the directory elsewhere. An external test package
	// (offload_test) shares its directory's key.
	pkg     string
	test    bool
	imports map[string]string // local import name → package key
	paths   map[string]string // local import name → import path, standard library included
	reach   map[string]bool   // package keys this file can name a type of
}

// structDecl is a struct type's declared fields, each with its resolved type
// ("" when that is not a struct of this repository), and the resolved types
// of its embedded fields.
type structDecl struct {
	fields map[string]string
	embeds []string
}

// scope maps the variable names visible in a function to their declared
// type; "?" marks a name whose declarations disagree or cannot be read.
type scope map[string]string

type census struct {
	fset     *token.FileSet
	files    []*repoFile
	internal map[string]bool        // package keys under internal/
	structs  map[string]*structDecl // "pkg.Type" → declaration
	alias    map[string]string      // `type X = pkg.Y`: "pkg.X" → "pkg.Y"
	// results maps "pkg.Func" and "pkg.Type.Method" to the resolved types
	// of the declared results; nil where two declarations disagree.
	results map[string][]string
}

// repo is the one census a test binary parses, lazily; no test mutates it.
var repo struct {
	once sync.Once
	c    *census
	err  error
}

// parseRepo returns the census of every .go file of the repository — bench/
// and tests included — with struct declarations, aliases and import reach
// indexed. The first call parses; every later one shares its result.
func parseRepo(t *testing.T) *census {
	t.Helper()
	repo.once.Do(func() { repo.c, repo.err = parseTree() })
	if repo.err != nil {
		t.Fatal(repo.err)
	}
	return repo.c
}

func parseTree() (*census, error) {
	c := &census{
		fset: token.NewFileSet(), internal: map[string]bool{},
		structs: map[string]*structDecl{}, alias: map[string]string{},
		results: map[string][]string{},
	}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		f, err := parseFile(c.fset, filepath.ToSlash(path), src)
		if err != nil {
			return err
		}
		if strings.HasPrefix(f.path, "internal/") {
			c.internal[f.pkg] = true
		}
		c.files = append(c.files, f)
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Struct names first, then aliases, then fields: an alias names a
	// struct, and a field's type may name either.
	forTypes := func(fn func(f *repoFile, ts *ast.TypeSpec)) {
		for _, f := range c.files {
			for _, d := range f.ast.Decls {
				if gd, ok := d.(*ast.GenDecl); ok {
					for _, s := range gd.Specs {
						if ts, ok := s.(*ast.TypeSpec); ok {
							fn(f, ts)
						}
					}
				}
			}
		}
	}
	forTypes(func(f *repoFile, ts *ast.TypeSpec) {
		if _, ok := ts.Type.(*ast.StructType); ok {
			c.structs[f.pkg+"."+ts.Name.Name] = &structDecl{fields: map[string]string{}}
		}
	})
	forTypes(func(f *repoFile, ts *ast.TypeSpec) {
		if target := c.resolve(f, ts.Type); ts.Assign.IsValid() && target != "" {
			c.alias[f.pkg+"."+ts.Name.Name] = target
		}
	})
	forTypes(func(f *repoFile, ts *ast.TypeSpec) {
		if st, ok := ts.Type.(*ast.StructType); ok {
			decl := c.structs[f.pkg+"."+ts.Name.Name]
			for _, fl := range st.Fields.List {
				if len(fl.Names) == 0 {
					decl.embeds = append(decl.embeds, c.resolve(f, fl.Type))
				}
				for _, id := range fl.Names {
					decl.fields[id.Name] = c.resolve(f, fl.Type)
				}
			}
		}
	})

	for _, f := range c.files {
		for _, d := range f.ast.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			key := f.pkg + "." + fn.Name.Name
			if fn.Recv != nil {
				key = f.pkg + "." + receiverName(fn.Recv.List[0].Type) + "." + fn.Name.Name
			}
			var res []string
			if fn.Type.Results != nil {
				for _, r := range fn.Type.Results.List {
					for range max(1, len(r.Names)) {
						res = append(res, c.resolve(f, r.Type))
					}
				}
			}
			if prev, seen := c.results[key]; seen && !slices.Equal(prev, res) {
				res = nil
			}
			c.results[key] = res
		}
	}

	// reach: a file can hold a value of a package's type only if its own
	// package is that one or imports it, directly or transitively.
	deps := map[string]map[string]bool{}
	for _, f := range c.files {
		if deps[f.pkg] == nil {
			deps[f.pkg] = map[string]bool{}
		}
		if !f.test {
			for _, key := range f.imports {
				deps[f.pkg][key] = true
			}
		}
	}
	var closure func(into map[string]bool, pkg string)
	closure = func(into map[string]bool, pkg string) {
		if !into[pkg] {
			into[pkg] = true
			for dep := range deps[pkg] {
				closure(into, dep)
			}
		}
	}
	for _, f := range c.files {
		f.reach = map[string]bool{}
		closure(f.reach, f.pkg)
		for _, key := range f.imports {
			closure(f.reach, key)
		}
	}
	return c, nil
}

// parseFile parses the file at rel, its slash-separated path from the
// repository root, from src, and reads its imports.
func parseFile(fset *token.FileSet, rel string, src []byte) (*repoFile, error) {
	af, err := parser.ParseFile(fset, rel, src, parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	f := &repoFile{
		ast: af, path: rel, src: string(src), pkg: strings.TrimPrefix(path.Dir(rel), "internal/"),
		test: strings.HasSuffix(rel, "_test.go"), imports: map[string]string{}, paths: map[string]string{},
	}
	for _, imp := range af.Imports {
		p, _ := strconv.Unquote(imp.Path.Value)
		local := path.Base(p)
		if imp.Name != nil {
			local = imp.Name.Name
		}
		f.paths[local] = p
		key, ok := ".", p == "tinymlops"
		if !ok {
			key, ok = strings.CutPrefix(p, "tinymlops/internal/")
		}
		if ok {
			f.imports[local] = key
		}
	}
	return f, nil
}

// resolve names the "pkg.Type" a type expression refers to, through the
// file's imports, pointers and aliases; "" for anything that is not a named
// struct type of this repository.
func (c *census) resolve(f *repoFile, e ast.Expr) string {
	var key string
	switch e := e.(type) {
	case *ast.Ident:
		key = f.pkg + "." + e.Name
	case *ast.SelectorExpr:
		x, ok := e.X.(*ast.Ident)
		if !ok || f.imports[x.Name] == "" {
			return ""
		}
		key = f.imports[x.Name] + "." + e.Sel.Name
	case *ast.StarExpr:
		return c.resolve(f, e.X)
	default:
		return ""
	}
	if target, ok := c.alias[key]; ok {
		return target
	}
	if c.structs[key] == nil {
		return "" // a builtin, an interface, a func type
	}
	return key
}

// field looks name up in struct typ and, failing that, in the structs it
// embeds: declaring is the struct that declares it ("" when none does, so
// typ.name is a method or nothing) and ftype the field's resolved type. ok
// is false when typ is not a known struct or embeds something unknown the
// name could be promoted from.
func (c *census) field(typ, name string) (declaring, ftype string, ok bool) {
	st := c.structs[typ]
	if st == nil {
		return "", "", false
	}
	if ft, has := st.fields[name]; has {
		return typ, ft, true
	}
	ok = true
	for _, e := range st.embeds {
		d, ft, eok := c.field(e, name)
		if d != "" {
			return d, ft, true
		}
		ok = ok && eok
	}
	return "", "", ok
}

// typeOf infers the struct type of an expression from declarations the
// enclosing function shows; "" when it cannot.
func (c *census) typeOf(f *repoFile, env scope, e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		if typ := env[e.Name]; typ != "?" {
			return typ
		}
	case *ast.SelectorExpr:
		_, ft, _ := c.field(c.typeOf(f, env, e.X), e.Sel.Name)
		return ft
	case *ast.CompositeLit:
		if e.Type != nil {
			return c.resolve(f, e.Type)
		}
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return c.typeOf(f, env, e.X)
		}
	case *ast.ParenExpr:
		return c.typeOf(f, env, e.X)
	case *ast.StarExpr:
		return c.typeOf(f, env, e.X)
	case *ast.CallExpr:
		if res := c.callResults(f, env, e); len(res) == 1 {
			return res[0]
		}
	}
	return ""
}

// callResults is the resolved result list of the function or method a call
// names, where the call's syntax and the enclosing scope show which it is.
func (c *census) callResults(f *repoFile, env scope, call *ast.CallExpr) []string {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return c.results[f.pkg+"."+fun.Name]
	case *ast.SelectorExpr:
		if x, ok := fun.X.(*ast.Ident); ok && f.imports[x.Name] != "" {
			return c.results[f.imports[x.Name]+"."+fun.Sel.Name]
		}
		if typ := c.typeOf(f, env, fun.X); typ != "" {
			return c.results[typ+"."+fun.Sel.Name]
		}
	}
	return nil
}

// walk calls visit on every node of the file with the enclosing top-level
// function (nil outside one) and its scope as declared so far. Scopes are
// flat per top-level declaration: a name declared twice with different or
// unreadable types becomes "?", which every lookup treats as unknown.
func (c *census) walk(f *repoFile, visit func(fn *ast.FuncDecl, env scope, n ast.Node)) {
	for _, d := range f.ast.Decls {
		fn, _ := d.(*ast.FuncDecl)
		env := scope{}
		declare := func(id *ast.Ident, typ string) {
			if typ == "" {
				typ = "?"
			}
			if prev, ok := env[id.Name]; ok && prev != typ {
				typ = "?"
			}
			env[id.Name] = typ
		}
		params := func(lists ...*ast.FieldList) {
			for _, l := range lists {
				if l == nil {
					continue
				}
				for _, p := range l.List {
					for _, id := range p.Names {
						declare(id, c.resolve(f, p.Type))
					}
				}
			}
		}
		ast.Inspect(d, func(n ast.Node) bool {
			if n == nil {
				return true
			}
			visit(fn, env, n)
			switch n := n.(type) {
			case *ast.FuncDecl:
				params(n.Recv, n.Type.Params, n.Type.Results)
			case *ast.FuncLit:
				params(n.Type.Params, n.Type.Results)
			case *ast.AssignStmt:
				if n.Tok == token.DEFINE {
					for i, lhs := range n.Lhs {
						typ := ""
						if len(n.Lhs) == len(n.Rhs) {
							typ = c.typeOf(f, env, n.Rhs[i])
						} else if call, ok := n.Rhs[0].(*ast.CallExpr); ok {
							if res := c.callResults(f, env, call); len(res) == len(n.Lhs) {
								typ = res[i]
							}
						}
						declare(lhs.(*ast.Ident), typ)
					}
				}
			case *ast.ValueSpec:
				for i, id := range n.Names {
					switch {
					case n.Type != nil:
						declare(id, c.resolve(f, n.Type))
					case len(n.Values) == len(n.Names):
						declare(id, c.typeOf(f, env, n.Values[i]))
					default:
						declare(id, "")
					}
				}
			case *ast.RangeStmt:
				for _, v := range []ast.Expr{n.Key, n.Value} {
					if id, ok := v.(*ast.Ident); ok && n.Tok == token.DEFINE {
						declare(id, "")
					}
				}
			}
			return true
		})
	}
}
