package tinymlops

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path"
	"regexp"
	"slices"
	"strings"
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
	bad        string // a violating file body, after its package clause
}

// pred matches a node, seen in its file and its function's scope (census.walk).
type pred = func(a at, n ast.Node) bool

type at struct {
	c   *census
	f   *repoFile
	env scope
}

var censusRules = []*rule{
	{name: "docs", fact: "every package directly under internal/ ships a doc.go", home: "internal/x/doc.go", scope: []string{"internal/"}, tests: true, bad: "func f() {}",
		match: func(a at, n ast.Node) bool {
			dir, file := path.Split(a.f.path)
			return n == a.f.ast && file != "doc.go" && strings.Count(dir, "/") == 2 && !slices.ContainsFunc(a.c.files, func(f *repoFile) bool { return f.path == dir+"doc.go" })
		}},
	{name: "layer-kind", fact: "what a layer kind is lives in internal/nn/kinds.go; only the three kernel backends switch on a layer's type", scope: []string{"internal/"}, home: "internal/nn/fuse.go",
		allow: []string{"internal/nn/fuse.go", "internal/quant/qmodel.go", "internal/compat/compile.go"}, match: is(func(_ at, x *ast.TypeAssertExpr) bool { return x.Type == nil }), bad: "func f(x any) { switch x.(type) {} }"},
	{name: "opcode", fact: "what an instruction is lives in internal/procvm/ops.go's table; only the interpreter's dispatch switches on an opcode", scope: []string{""}, home: "internal/procvm/vm.go",
		allow: []string{"internal/procvm/vm.go"}, match: is(func(a at, cc *ast.CaseClause) bool {
			return slices.ContainsFunc(cc.List, func(e ast.Expr) bool { return a.has(e, opcode) })
		}), bad: "func f(op int) { switch op { case procvm.OpPush: } }"},
	{name: "window", fact: "what a sliding window is (output size, fits rule, im2col, col2im, max pooling) lives in internal/tensor/window.go", scope: []string{""}, home: "internal/tensor/window.go",
		allow: []string{"internal/tensor/window.go"}, bad: "func outH(h, k, s int) int { return (h-k)/s.Stride + 1 }",
		match: func(a at, n ast.Node) bool {
			sum, isSum := n.(*ast.BinaryExpr) // … / stride + 1, the output-size formula
			fn, isFunc := n.(*ast.FuncDecl)   // a name in the signature holds im2col or col2im
			return isSum && sum.Op == token.ADD && strideDivisor.MatchString(types.ExprString(sum.X)) && strings.HasPrefix(types.ExprString(sum.Y), "1") ||
				isFunc && a.has(&ast.FuncDecl{Recv: fn.Recv, Name: fn.Name, Type: fn.Type}, named(`(?i)im2col|col2im`))
		}},
	{name: "geometry", fact: "shape inference runs once, when nn.Assemble makes a network; only there is a layer asked for its output shape", scope: []string{""}, home: "internal/nn/network.go",
		allow: []string{"internal/nn/network.go"}, match: member("Describe"), bad: "var _ = l.Describe(in)"},
	{name: "panic", fact: "nn and quant admit a network when it is made and check a batch where it enters; each panic left is listed", scope: []string{"internal/nn/", "internal/quant/"}, home: "internal/nn/network.go",
		allow: []string{`internal/nn/network.go|panic(err.Error())`, `internal/nn/network.go|panic(fmt.Sprintf("nn: input %v does not fit the network`,
			`internal/nn/norm.go|panic(fmt.Sprintf("nn: dropout probability`, `internal/nn/loss.go|panic(fmt.Sprintf("nn: softmaxCrossEntropy got`,
			`internal/nn/loss.go|panic(fmt.Sprintf("nn: label %d out of range`, `internal/quant/split.go|panic(fmt.Sprintf("quant: input shape`},
		match: named("panic$"), bad: "func f(err error) { panic(err.Error()) }"},
	{name: "wire-helper", fact: "fixed-width and varint reads live in internal/wire; encoders call encoding/binary's Append functions", scope: []string{"internal/"}, tests: true, home: "internal/wire/reader.go",
		allow: []string{"internal/wire/"}, match: is(func(_ at, fn *ast.FuncDecl) bool { return wireHelper.MatchString(fn.Name.Name) }), bad: "func (d *dec) readU32() uint32 { return 0 }"},
	{name: "reader", fact: "a format decodes on internal/wire's cursor from the bytes it arrived in; the one stream reader is the settlement socket's", scope: []string{"internal/"}, home: "internal/metering/frame.go",
		allow: []string{"internal/metering/frame.go"}, match: refs("bytes.NewReader", "io.ReadFull"), bad: "import \"io\"\nvar _ = io.ReadFull"},
	{name: "json", fact: "encoding/json is for one file format, the model exchange document", scope: []string{"internal/"}, home: "internal/compat/exchange.go",
		allow: []string{"internal/compat/exchange.go"}, match: imports(`^"encoding/json"$`), bad: `import _ "encoding/json"`},
	{name: "executor", fact: "core builds executors in newExecutor only, once per kind", scope: []string{"internal/core/"}, home: "internal/core/image.go", allow: []string{"internal/core/image.go"},
		match: refs("tinymlops/internal/exec.Float", "tinymlops/internal/exec.Quant", "tinymlops/internal/exec.Module", "tinymlops/internal/quant.NewQModel"), once: []string{"exec.Float", "exec.Quant", "exec.Module"},
		bad: "import \"tinymlops/internal/exec\"\nvar _, _, _ = exec.Float(m), exec.Quant(m, s), exec.Module(p, c, w, n)"},
	{name: "offload-registry", fact: "every cloud entry comes from the deployment's live image, so core's offload.go never reads the registry", scope: []string{"internal/core/offload.go"},
		home: "internal/core/image.go", match: named("Registry"), bad: "var _ = p.Registry"},
	{name: "session-config", fact: "a platform session runs the deployment's executor, so core sets no standalone offload.SessionConfig field", scope: []string{"internal/core/"}, home: "bench/offload.go",
		bad: "import \"tinymlops/internal/offload\"\nvar _ = offload.SessionConfig{Model: nil}",
		match: func(a at, n ast.Node) bool {
			lit, isLit := n.(*ast.CompositeLit) // a key of the literal, or of one nested in it
			sel, isSel := n.(*ast.SelectorExpr)
			return isLit && a.has(lit.Type, named("^SessionConfig$")) && a.has(lit, is(func(_ at, kv *ast.KeyValueExpr) bool { return standalone.MatchString(types.ExprString(kv.Key)) })) ||
				isSel && standalone.MatchString(sel.Sel.Name) && a.c.typeOf(a.f, a.env, sel.X) == "offload.SessionConfig"
		}},
	{name: "kernel-choice", fact: "one variant is one function on every device; SupportsBits is the cost model's and the selector's", scope: []string{"internal/core/", "internal/exec/", "internal/offload/", "internal/quant/"},
		home: "internal/selector/selector.go", match: named("SupportsBits"), bad: "var _ = d.SupportsBits(8)"},
	{name: "one-door", fact: "cmd/ and examples/ enter through the facade; cmd/experiments prints internal/experiments' tables", scope: []string{"cmd/", "examples/"}, tests: true,
		home: "cmd/experiments/main.go", allow: []string{"cmd/experiments/main.go"}, match: imports(`^"tinymlops/internal/`), bad: `import _ "tinymlops/internal/nn"`},
	{name: "testing", fact: "no shipped binary links testing; the wire formats' shared strictness check is its one non-test importer", scope: []string{""},
		home: "internal/wire/wiretest/wiretest.go", allow: []string{"internal/wire/wiretest/"}, match: imports(`^"testing"$`), bad: `import "testing"`},
	{name: "clone", fact: "federated clients train in the worker's workspace; fed clones a model only to build it, for the broadcast snapshot and to personalize", scope: []string{"internal/fed/"},
		home: "internal/fed/workspace.go", allow: []string{"internal/fed/workspace.go", "internal/fed/personalize.go", "internal/fed/round.go|co.prev = co.Global.Clone()"}, match: member("Clone"), bad: "var _ = g.Clone()"},
	{name: "edge-delta", fact: "fed encodes an nn delta only for the edge broadcast; the plain uplink is sized by nn.DeltaSize", scope: []string{"internal/fed/"}, home: "internal/fed/round.go",
		allow: []string{"internal/fed/round.go|nn.EncodeDelta(co.prev, co.Global)"}, match: refs("tinymlops/internal/nn.EncodeDelta"), bad: "import \"tinymlops/internal/nn\"\nvar _, _ = nn.EncodeDelta(co.prev, co.Global)"},
	{name: "test-size", fact: "the headline build tag picks a test's size; nothing branches on -short", scope: []string{""}, tests: true,
		match: refs("testing.Short"), bad: "import \"testing\"\nvar _ = testing.Short()"},
	{name: "call", fact: "the cloud tier is a call: a suffix runs in the goroutine that submits it", scope: []string{"internal/offload/"},
		home: "internal/engine/engine.go", match: func(a at, n ast.Node) bool { return goStmt(a, n) || condRef(a, n) }, bad: "func f() { go f() }"},
	{name: "serial-kernel", fact: "a tensor kernel is a serial loop on the calling goroutine; internal/engine is the one fan-out", scope: []string{"internal/tensor/"},
		home: "internal/engine/engine.go", match: func(a at, n ast.Node) bool { return goStmt(a, n) || schedImport(a, n) }, bad: `import _ "sync/atomic"`},
	{name: "training-forward", fact: "Forward is the training pass and inference runs ForwardBatch; outside nn only the distillation loop trains", scope: []string{""},
		home: "internal/ipprot/extraction.go", allow: []string{"internal/nn/", "internal/ipprot/extraction.go"}, match: member("Forward"), bad: "var _ = net.Forward(x, true)"},
	{name: "activation", fact: "the model path's exp and tanh are internal/tensor/nonlinear.go's kernels", scope: []string{"internal/nn/", "internal/procvm/", "internal/quant/"},
		home: "internal/tensor/nonlinear.go", match: refs("math.Exp", "math.Tanh"), bad: "import \"math\"\nvar _ = math.Exp(1)"},
}

var (
	opcode        = named(`^Op[A-Z]`)
	strideDivisor = regexp.MustCompile(`(?i)/ *[a-z_.]*stride$`)
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
		visit := func(_ *ast.FuncDecl, env scope, n ast.Node) {
			for _, r := range live {
				if a := (at{c, f, env}); r.match(a, n) {
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
		}
		visit(nil, nil, f.ast)
		c.walk(f, visit)
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

// TestCensus runs each row over the repository, then over its violating body in
// memory: an offence in scope off the allow-list, none at home. No row passes
// by matching nothing.
func TestCensus(t *testing.T) {
	c := parseRepo(t)
	offences := c.audit(censusRules, c.files)
	m := *c
	m.fset = token.NewFileSet() // the shared census's positions stay as they are
	for _, r := range censusRules {
		t.Run(r.name, func(t *testing.T) {
			if got := offences[r.name]; len(got) > 0 {
				t.Errorf("%s\n  expected: no match in %q outside %q\n  actual:\n    %s", r.fact, r.scope, r.allow, strings.Join(got, "\n    "))
			}
			mutant := func(p string) []string {
				f, err := parseFile(m.fset, p, []byte("package mutant\n"+r.bad))
				if err != nil {
					t.Fatal(err)
				}
				return m.audit([]*rule{r}, []*repoFile{f})[r.name]
			}
			out := path.Join(r.scope[0], "x/mutant.go") // under the scope's first prefix, file or directory
			if got := mutant(out); !slices.ContainsFunc(got, func(s string) bool { return strings.HasPrefix(s, out+":") }) {
				t.Errorf("mutation\n  expected: an offence at %s\n  actual: %q", out, got)
			}
			if got := mutant(r.home); r.home != "" && len(got) > 0 {
				t.Errorf("mutation\n  expected: none at %s\n  actual: %q", r.home, got)
			}
		})
	}
}
