package tinymlops

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"maps"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// rule is one census row: a fact that lives in one place, and the syntax that
// would state it elsewhere. It reads parsed trees: no comment or string matches.
type rule struct {
	name, fact string
	home       string   // a file where the row's syntax is legal; "" where none is
	scope      []string // path prefixes the row scans; "" is the repository
	tests      bool     // scan _test.go files too
	allow      []string // a file, a directory ending in "/", or "file|text": a site in file on a line holding text
	once       []string // source texts that must each match exactly once in home
	match      pred
	bad        []string // violating file bodies, after their package clause, that type-check
}

// pred matches a node, seen in its file.
type pred = func(a at, n ast.Node) bool

type at struct {
	c *census
	f *repoFile
}

var censusRules = []*rule{
	{name: "docs", fact: "every package directly under internal/ ships a doc.go", home: "internal/x/doc.go", scope: []string{"internal/"}, tests: true, bad: []string{"func f() {}"},
		match: func(a at, n ast.Node) bool {
			dir, file := path.Split(a.f.path)
			return n == a.f.ast && file != "doc.go" && strings.Count(dir, "/") == 2 && !slices.ContainsFunc(a.c.files, func(f *repoFile) bool { return f.path == dir+"doc.go" })
		}},
	{name: "layer-kind", fact: "what a layer kind is lives in internal/nn/kinds.go; only the three kernel backends switch on a layer's type", scope: []string{"internal/"}, home: "internal/nn/fuse.go",
		allow: []string{"internal/nn/fuse.go", "internal/quant/qmodel.go", "internal/compat/compile.go"}, match: is(func(_ at, x *ast.TypeAssertExpr) bool { return x.Type == nil }), bad: []string{"func f(x any) { switch x.(type) {} }"}},
	{name: "opcode", fact: "what an instruction is lives in internal/procvm/ops.go's table; only the interpreter's dispatch switches on an opcode", scope: []string{""}, home: "internal/procvm/vm.go",
		allow: []string{"internal/procvm/vm.go"}, match: is(func(a at, cc *ast.CaseClause) bool {
			return slices.ContainsFunc(cc.List, func(e ast.Expr) bool { return a.has(e, opcode) })
		}), bad: []string{"import \"tinymlops/internal/procvm\"\nfunc f(op procvm.OpCode) { switch op { case procvm.OpPushScalar: } }"}},
	{name: "window", fact: "what a sliding window is (output size, fits rule, im2col, col2im, max pooling) lives in internal/tensor/window.go", scope: []string{""}, home: "internal/tensor/window.go",
		allow: []string{"internal/tensor/window.go"}, bad: []string{"type geom struct{ Stride int }\nfunc outH(h, k int, s geom) int { return (h-k)/s.Stride + 1 }"},
		match: func(a at, n ast.Node) bool {
			sum, isSum := n.(*ast.BinaryExpr) // … / stride + 1, the output-size formula
			fn, isFunc := n.(*ast.FuncDecl)   // a name in the signature holds im2col or col2im
			return isSum && sum.Op == token.ADD && strideDivisor.MatchString(types.ExprString(sum.X)) && strings.HasPrefix(types.ExprString(sum.Y), "1") ||
				isFunc && a.has(&ast.FuncDecl{Recv: fn.Recv, Name: fn.Name, Type: fn.Type}, named(`(?i)im2col|col2im`))
		}},
	{name: "geometry", fact: "shape inference runs once, when nn.Assemble makes a network; only there is a layer asked for its output shape", scope: []string{""}, home: "internal/nn/network.go",
		allow: []string{"internal/nn/network.go"}, match: member("Describe"), bad: []string{"import \"tinymlops/internal/nn\"\nfunc f(l *nn.ReLU, in []int) { _, _ = l.Describe(in) }"}},
	{name: "panic", fact: "nn and quant admit a network when it is made and check a batch where it enters; each panic left is listed", scope: []string{"internal/nn/", "internal/quant/"}, home: "internal/nn/network.go",
		allow: []string{`internal/nn/network.go|panic(err.Error())`, `internal/nn/network.go|panic(fmt.Sprintf("nn: input %v does not fit the network`,
			`internal/nn/norm.go|panic(fmt.Sprintf("nn: dropout probability`, `internal/nn/loss.go|panic(fmt.Sprintf("nn: softmaxCrossEntropy got`,
			`internal/nn/loss.go|panic(fmt.Sprintf("nn: label %d out of range`, `internal/quant/split.go|panic(fmt.Sprintf("quant: input shape`},
		match: named("panic$"), bad: []string{"func f(err error) { panic(err.Error()) }"}},
	{name: "wire-helper", fact: "fixed-width and varint reads live in internal/wire; encoders call encoding/binary's Append functions", scope: []string{"internal/"}, tests: true, home: "internal/wire/reader.go",
		allow: []string{"internal/wire/"}, match: is(func(_ at, fn *ast.FuncDecl) bool { return wireHelper.MatchString(fn.Name.Name) }), bad: []string{"type dec struct{}\nfunc (d *dec) readU32() uint32 { return 0 }"}},
	{name: "reader", fact: "a format decodes on internal/wire's cursor from the bytes it arrived in; the one stream reader is the settlement socket's", scope: []string{"internal/"}, home: "internal/metering/frame.go",
		allow: []string{"internal/metering/frame.go"}, match: refs("bytes.NewReader", "io.ReadFull"), bad: []string{"import \"io\"\nvar _ = io.ReadFull"}},
	{name: "json", fact: "encoding/json is for one file format, the model exchange document", scope: []string{"internal/"}, home: "internal/compat/exchange.go",
		allow: []string{"internal/compat/exchange.go"}, match: imports(`^"encoding/json"$`), bad: []string{`import _ "encoding/json"`}},
	{name: "executor", fact: "core builds executors in newExecutor only, once per kind", scope: []string{"internal/core/"}, home: "internal/core/image.go", allow: []string{"internal/core/image.go"},
		match: refs("tinymlops/internal/exec.Float", "tinymlops/internal/exec.Quant", "tinymlops/internal/exec.Module", "tinymlops/internal/quant.NewQModel"), once: []string{"exec.Float", "exec.Quant", "exec.Module"},
		bad: []string{"import (\n\t\"tinymlops/internal/exec\"\n\t\"tinymlops/internal/nn\"\n\t\"tinymlops/internal/procvm\"\n\t\"tinymlops/internal/quant\"\n)\n" +
			"func f(m *nn.Network, s quant.Scheme, p *procvm.Module) {\n\t_, _ = exec.Float(m)\n\t_, _ = exec.Quant(m, s)\n\t_, _ = exec.Module(p, procvm.CapNone, 4, 0)\n}"}},
	{name: "offload-registry", fact: "every cloud entry comes from the deployment's live image, so core's offload.go never reads the registry", scope: []string{"internal/core/offload.go"},
		home: "internal/core/image.go", match: named("Registry"), bad: []string{"var p struct{ Registry int }\nvar _ = p.Registry"}},
	{name: "session-config", fact: "a platform session runs the deployment's executor, so core sets no standalone offload.SessionConfig field", scope: []string{"internal/core/"}, home: "bench/offload.go",
		bad: []string{"import \"tinymlops/internal/offload\"\nvar _ = offload.SessionConfig{Model: nil}",
			"import \"tinymlops/internal/offload\"\nvar cfgs []offload.SessionConfig\nfunc f() { c := cfgs[0]; c.Model = nil }"},
		match: func(a at, n ast.Node) bool {
			lit, isLit := n.(*ast.CompositeLit) // a key of the literal, or of one nested in it
			sel, isSel := n.(*ast.SelectorExpr)
			return isLit && a.has(lit.Type, named("^SessionConfig$")) && a.has(lit, is(func(_ at, kv *ast.KeyValueExpr) bool { return standalone.MatchString(types.ExprString(kv.Key)) })) ||
				isSel && standalone.MatchString(sel.Sel.Name) && strings.TrimPrefix(types.TypeString(a.c.info.TypeOf(sel.X), nil), "*") == "tinymlops/internal/offload.SessionConfig"
		}},
	{name: "kernel-choice", fact: "one variant is one function on every device; SupportsBits is the cost model's and the selector's", scope: []string{"internal/core/", "internal/exec/", "internal/offload/", "internal/quant/"},
		home: "internal/selector/selector.go", match: named("SupportsBits"), bad: []string{"import \"tinymlops/internal/device\"\nvar d device.Capabilities\nvar _ = d.SupportsBits(8)"}},
	{name: "one-door", fact: "cmd/ and examples/ enter through the facade; cmd/experiments prints internal/experiments' tables", scope: []string{"cmd/", "examples/"}, tests: true,
		home: "cmd/experiments/main.go", allow: []string{"cmd/experiments/main.go"}, match: imports(`^"tinymlops/internal/`), bad: []string{`import _ "tinymlops/internal/nn"`}},
	{name: "testing", fact: "no shipped binary links testing; the wire formats' shared strictness check is its one non-test importer", scope: []string{""},
		home: "internal/wire/wiretest/wiretest.go", allow: []string{"internal/wire/wiretest/"}, match: imports(`^"testing"$`), bad: []string{`import _ "testing"`}},
	{name: "clone", fact: "federated clients train in the worker's workspace; fed clones a model only to build it, for the broadcast snapshot and to personalize", scope: []string{"internal/fed/"},
		home: "internal/fed/workspace.go", allow: []string{"internal/fed/workspace.go", "internal/fed/personalize.go", "internal/fed/round.go|co.prev = co.Global.Clone()"}, match: member("Clone"), bad: []string{"import \"tinymlops/internal/nn\"\nvar g *nn.Network\nvar _ = g.Clone()"}},
	{name: "edge-delta", fact: "fed encodes an nn delta only for the edge broadcast; the plain uplink is sized by nn.DeltaSize", scope: []string{"internal/fed/"}, home: "internal/fed/round.go",
		allow: []string{"internal/fed/round.go|nn.EncodeDelta(co.prev, co.Global)"}, match: refs("tinymlops/internal/nn.EncodeDelta"), bad: []string{"import \"tinymlops/internal/nn\"\nvar co struct{ prev, Global *nn.Network }\nvar _, _ = nn.EncodeDelta(co.prev, co.Global)"}},
	{name: "test-size", fact: "the headline build tag picks a test's size; nothing branches on -short", scope: []string{""}, tests: true,
		match: refs("testing.Short"), bad: []string{"import \"testing\"\nvar _ = testing.Short()"}},
	{name: "call", fact: "the cloud tier is a call: a suffix runs in the goroutine that submits it", scope: []string{"internal/offload/"},
		home: "internal/engine/engine.go", match: func(a at, n ast.Node) bool { return goStmt(a, n) || condRef(a, n) }, bad: []string{"func f() { go f() }"}},
	{name: "serial-kernel", fact: "a tensor kernel is a serial loop on the calling goroutine; internal/engine is the one fan-out", scope: []string{"internal/tensor/"},
		home: "internal/engine/engine.go", match: func(a at, n ast.Node) bool { return goStmt(a, n) || schedImport(a, n) }, bad: []string{`import _ "sync/atomic"`}},
	{name: "training-forward", fact: "Forward is the training pass and inference runs ForwardBatch; outside nn only the distillation loop trains", scope: []string{""},
		home: "internal/ipprot/extraction.go", allow: []string{"internal/nn/", "internal/ipprot/extraction.go"}, match: member("Forward"), bad: []string{"import (\n\t\"tinymlops/internal/nn\"\n\t\"tinymlops/internal/tensor\"\n)\nvar net *nn.Network\nvar x *tensor.Tensor\nvar _ = net.Forward(x)"}},
	{name: "artifact-name", fact: "what an artifact is called, full:<id> or delta:<from>><to>, is the registry's; it resolves the names it gives", scope: []string{""},
		home: "internal/registry/registry.go", allow: []string{"internal/registry/", "bench/"}, match: is(func(_ at, l *ast.BasicLit) bool { return artifactName.MatchString(l.Value) }), bad: []string{"var from string\nvar _ = \"delta:\" + from"}},
	{name: "activation", fact: "the model path's exp and tanh are internal/tensor/nonlinear.go's kernels", scope: []string{"internal/nn/", "internal/procvm/", "internal/quant/"},
		home: "internal/tensor/nonlinear.go", match: refs("math.Exp", "math.Tanh"), bad: []string{"import \"math\"\nvar _ = math.Exp(1)"}},
	{name: "device-draws", fact: "a device draws no randomness; its weather is set by its caller or the fault plane", scope: []string{"internal/device/"},
		home: "internal/faults/faults.go", match: is(func(a at, id *ast.Ident) bool {
			fn, ok := a.c.info.Uses[id].(*types.Func)
			return ok && rngUse.MatchString(fn.FullName())
		}), bad: []string{"import \"tinymlops/internal/tensor\"\nvar _ = tensor.NewRNG(1)", "import \"tinymlops/internal/tensor\"\nfunc f(r *tensor.RNG) bool { return r.Float64() < 0.5 }"}},
}

var (
	opcode        = named(`^Op[A-Z]`)
	strideDivisor = regexp.MustCompile(`(?i)/ *[a-z_.]*stride$`)
	artifactName  = regexp.MustCompile(`^"(full|delta):`)
	rngUse        = regexp.MustCompile(`^(\(\*tinymlops/internal/tensor\.RNG\)\.|tinymlops/internal/tensor\.NewRNG$)`)
	wireHelper    = regexp.MustCompile(`^(read|write|put|get)(U32|U64|F32|Str|String|Uvarint)$`)
	standalone    = regexp.MustCompile(`^(Model|Scheme|Module|ModuleMACs|InFeatures)$`)
	goStmt        = is(func(at, *ast.GoStmt) bool { return true })
	condRef       = refs("sync.Cond", "sync.NewCond")
	schedImport   = imports(`^"(runtime|sync|sync/atomic)"$`)
)

// is matches a node of type T that p accepts.
func is[T ast.Node](p func(a at, x T) bool) pred {
	return func(a at, n ast.Node) bool { x, ok := n.(T); return ok && p(a, x) }
}

// named matches an identifier whose name re matches.
func named(re string) pred {
	r := regexp.MustCompile(re)
	return is(func(_ at, id *ast.Ident) bool { return r.MatchString(id.Name) })
}

// member matches x.Name for any of names: a method or field of a value.
func member(names ...string) pred {
	return is(func(_ at, s *ast.SelectorExpr) bool { return slices.Contains(names, s.Sel.Name) })
}

// refs matches a qualified identifier, named by import path ("io.ReadFull").
func refs(names ...string) pred {
	return is(func(a at, s *ast.SelectorExpr) bool {
		return slices.Contains(names, a.f.paths[types.ExprString(s.X)]+"."+s.Sel.Name)
	})
}

// imports matches an import whose quoted path re matches.
func imports(re string) pred {
	r := regexp.MustCompile(re)
	return is(func(_ at, imp *ast.ImportSpec) bool { return r.MatchString(imp.Path.Value) })
}

// has reports whether p matches n or a node under it.
func (a at) has(n ast.Node, p pred) (found bool) {
	ast.Inspect(n, func(m ast.Node) bool { found = found || m != nil && p(a, m); return m != nil && !found })
	return found
}

// audit walks each file once under the rows whose scope holds it. A row's
// offences are its matches off the allow-list and its once-texts not matched
// exactly once in home.
func (c *census) audit(rows []*rule, files []*repoFile) map[string][]string {
	out, counts := map[string][]string{}, map[string]int{}
	for _, f := range files {
		live := slices.DeleteFunc(slices.Clone(rows), func(r *rule) bool {
			return f.test && !r.tests || !slices.ContainsFunc(r.scope, func(s string) bool { return strings.HasPrefix(f.path, s) })
		})
		a := at{c, f}
		ast.Inspect(f.ast, func(n ast.Node) bool {
			for _, r := range live {
				if n != nil && r.match(a, n) {
					if e, ok := n.(ast.Expr); ok && f.path == r.home {
						counts[r.name+" "+types.ExprString(e)]++
					}
					pos := c.fset.Position(n.Pos())
					line, _, _ := strings.Cut(f.src[strings.LastIndexByte(f.src[:pos.Offset], '\n')+1:], "\n")
					if !slices.ContainsFunc(r.allow, func(entry string) bool {
						file, text, _ := strings.Cut(entry, "|")
						return (f.path == file || strings.HasSuffix(file, "/") && strings.HasPrefix(f.path, file)) && strings.Contains(line, text)
					}) {
						out[r.name] = append(out[r.name], fmt.Sprintf("%s:%d: %s", f.path, pos.Line, strings.TrimSpace(line)))
					}
				}
			}
			return true
		})
	}
	for _, r := range rows {
		for _, text := range r.once {
			if n := counts[r.name+" "+text]; n != 1 {
				out[r.name] = append(out[r.name], fmt.Sprintf("%s: %d × %s, want exactly 1", r.home, n, text))
			}
		}
	}
	return out
}

// TestCensus runs each row over the repository, then over each of its
// violating bodies in memory, type-checked against the repository's
// packages: an offence in scope off the allow-list, none at home. No row
// passes by matching nothing.
func TestCensus(t *testing.T) {
	c := parseRepo(t)
	offences := c.audit(censusRules, c.files)
	for _, r := range censusRules {
		t.Run(r.name, func(t *testing.T) {
			if got := offences[r.name]; len(got) > 0 {
				t.Errorf("%s\n  expected: no match in %q outside %q\n  actual:\n    %s", r.fact, r.scope, r.allow, strings.Join(got, "\n    "))
			}
			for _, body := range r.bad {
				mutant := func(p string) []string {
					m := *c
					m.fset = token.NewFileSet() // the shared census's positions stay as they are
					f, err := parseFile(m.fset, p, []byte("package mutant\n"+body))
					if err != nil {
						t.Fatal(err)
					}
					m.info = newInfo()
					if err := m.checkApart(f, m.info); err != nil {
						t.Fatalf("violating body does not type-check: %v", err)
					}
					return m.audit([]*rule{r}, []*repoFile{f})[r.name]
				}
				out := path.Join(r.scope[0], "x/mutant.go") // under the scope's first prefix, file or directory
				if got := mutant(out); !slices.ContainsFunc(got, func(s string) bool { return strings.HasPrefix(s, out+":") }) {
					t.Errorf("mutation %q\n  expected: an offence at %s\n  actual: %q", body, out, got)
				}
				if got := mutant(r.home); r.home != "" && len(got) > 0 {
					t.Errorf("mutation %q\n  expected: none at %s\n  actual: %q", body, r.home, got)
				}
			}
		})
	}
}

// TestFuzzSmokeRunsEveryTarget: ci.yml's fuzz-smoke step runs each fuzz
// target of the repository, in its own package, and names no other.
func TestFuzzSmokeRunsEveryTarget(t *testing.T) {
	ci, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	var inCI, inTree []string
	for _, m := range fuzzStep.FindAllStringSubmatch(string(ci), -1) {
		inCI = append(inCI, m[2]+" "+m[1])
	}
	for _, f := range parseRepo(t).files {
		for _, d := range f.ast.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && f.test && fn.Recv == nil && strings.HasPrefix(fn.Name.Name, "Fuzz") {
				inTree = append(inTree, path.Dir(f.path)+" "+fn.Name.Name)
			}
		}
	}
	slices.Sort(inCI)
	slices.Sort(inTree)
	if !slices.Equal(inCI, inTree) {
		t.Errorf("fuzz-smoke step\n  expected: %d targets\n    %s\n  actual: %d\n    %s", len(inTree), strings.Join(inTree, "\n    "), len(inCI), strings.Join(inCI, "\n    "))
	}
}

// fuzzStep matches one run of the fuzz-smoke step: the target, then its package.
var fuzzStep = regexp.MustCompile(`-fuzz (\w+) -fuzztime \S+ \./(\S+)`)

// repoFile is one parsed .go file of the repository.
type repoFile struct {
	ast  *ast.File
	path string // slash-separated, relative to the repository root
	src  string
	// pkg keys the file's package: its name under internal/ ("offload"), "."
	// for the facade, the directory elsewhere. An external test package
	// (offload_test) shares its directory's key.
	pkg   string
	test  bool
	paths map[string]string // local import name → import path
}

// census is a parsed and type-checked repository.
type census struct {
	fset    *token.FileSet
	files   []*repoFile // every file, bench/ and tests included
	checked []*repoFile // the files typeCheck admitted
	example *repoFile   // example_test.go, checked apart: only the field rule reads it
	info    *types.Info // what the checked files' identifiers and expressions denote
	imp     types.Importer
}

// repo is the one census a test binary makes, lazily; no test mutates it.
var repo struct {
	once sync.Once
	c    *census
	err  error
}

// parseRepo returns the census of every .go file of the repository, bench/
// and tests included, type-checked as typeCheck says. The first call parses
// and type-checks; every later one shares its result.
func parseRepo(t *testing.T) *census {
	t.Helper()
	repo.once.Do(func() { repo.c, repo.err = parseTree() })
	if repo.err != nil {
		t.Fatal(repo.err)
	}
	return repo.c
}

func parseTree() (*census, error) {
	fset := token.NewFileSet()
	var files []*repoFile
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
		f, err := parseFile(fset, filepath.ToSlash(path), src)
		if err == nil {
			files = append(files, f)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	return typeCheck(fset, files)
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
		test: strings.HasSuffix(rel, "_test.go"), paths: map[string]string{},
	}
	for _, imp := range af.Imports {
		p, _ := strconv.Unquote(imp.Path.Value)
		local := path.Base(p)
		if imp.Name != nil {
			local = imp.Name.Name
		}
		f.paths[local] = p
	}
	return f, nil
}

// stdExports caches each standard package's export data file across
// typeCheck calls, so a rule case runs go list only for a package the
// repository does not import.
var stdExports = struct {
	sync.Mutex
	file map[string]string
}{file: map[string]string{}}

// exportFiles locates, with one go list run, the export data of each package
// of std that stdExports does not yet hold, and returns a copy of it.
func exportFiles(goroot string, std []string) (map[string]string, error) {
	stdExports.Lock()
	defer stdExports.Unlock()
	std = slices.DeleteFunc(std, func(p string) bool { _, ok := stdExports.file[p]; return ok })
	if len(std) > 0 {
		slices.Sort(std)
		out, err := exec.Command(filepath.Join(goroot, "bin", "go"), append([]string{"list", "-deps", "-export", "-f", "{{.ImportPath}} {{.Export}}"}, slices.Compact(std)...)...).Output()
		if ee, ok := err.(*exec.ExitError); ok {
			return nil, fmt.Errorf("go list: %v: %s", err, ee.Stderr)
		} else if err != nil {
			return nil, err
		}
		for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
			p, file, _ := strings.Cut(line, " ")
			stdExports.file[p] = file
		}
	}
	return maps.Clone(stdExports.file), nil
}

// typeCheck type-checks each package of files as the go tool builds it for
// this platform: the non-test files its build constraints admit, and for
// bench/ the test files too; then example_test.go, as a package of its own
// outside census.checked. The standard library comes from its export
// data, which go list locates once per package and test binary
// (stdExports). Sizes are go/types' 64-bit default on every platform, as
// bench/'s constants assume.
func typeCheck(fset *token.FileSet, files []*repoFile) (*census, error) {
	c := &census{fset: fset, files: files, info: newInfo()}
	ctxt := build.Default
	pkgs := map[string][]*ast.File{} // import path → files
	var std []string
	for _, f := range files {
		ctxt.OpenFile = func(string) (io.ReadCloser, error) { return io.NopCloser(strings.NewReader(f.src)), nil }
		dir, name := path.Split(f.path)
		ok, err := ctxt.MatchFile(dir, name)
		if err != nil {
			return nil, err
		}
		switch {
		case f.path == "example_test.go":
			c.example = f
		case ok && (!f.test || f.pkg == "bench") && !strings.HasSuffix(f.ast.Name.Name, "_test"):
			p := path.Join("tinymlops", path.Dir(f.path))
			pkgs[p] = append(pkgs[p], f.ast)
			c.checked = append(c.checked, f)
		default:
			continue
		}
		for _, p := range f.paths {
			if p != "tinymlops" && !strings.HasPrefix(p, "tinymlops/") {
				std = append(std, p)
			}
		}
	}
	export, err := exportFiles(ctxt.GOROOT, std) // import path → export data file
	if err != nil {
		return nil, err
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
			pkg, err := conf.Check(p, fset, pkgs[p], c.info)
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
	c.imp = imp
	if c.example != nil {
		if err := c.checkApart(c.example, c.info); err != nil {
			return nil, err
		}
	}
	return c, nil
}

func newInfo() *types.Info {
	return &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}, Types: map[ast.Expr]types.TypeAndValue{}}
}

// checkApart type-checks f into info as a package of its own, which may
// import the census's packages and the standard library.
func (c *census) checkApart(f *repoFile, info *types.Info) error {
	conf := types.Config{Importer: c.imp}
	_, err := conf.Check(path.Join("tinymlops", path.Dir(f.path), f.ast.Name.Name), c.fset, []*ast.File{f.ast}, info)
	return err
}

// importerFunc is a types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
