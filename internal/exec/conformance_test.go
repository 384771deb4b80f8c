package exec

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"

	"tinymlops/internal/compat"
	"tinymlops/internal/engine"
	"tinymlops/internal/nn"
	"tinymlops/internal/procvm"
	"tinymlops/internal/quant"
	"tinymlops/internal/tensor"
)

func conformanceModel() *nn.Network {
	rng := tensor.NewRNG(11)
	return nn.NewNetwork([]int{8},
		nn.NewDense(8, 32, rng), nn.NewReLU(),
		nn.NewDense(32, 16, rng), nn.NewTanh(),
		nn.NewDense(16, 4, rng))
}

func bitsEqual(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// conformanceKind is one row of the executor table: how to build it, what
// it must report about itself, and an independent whole-pass reference
// computed without any executor.
type conformanceKind struct {
	name     string
	build    func(t testing.TB, net *nn.Network) Executor
	scheme   quant.Scheme
	slowdown float64
	steps    int
	legal    []int // cuts < n that SnapCut must leave alone
	ref      func(t *testing.T, net *nn.Network, x *tensor.Tensor) []float32
}

func floatRef(t *testing.T, net *nn.Network, x *tensor.Tensor) []float32 {
	return append([]float32(nil), net.Predict(x).Data...)
}

func quantRef(scheme quant.Scheme) func(*testing.T, *nn.Network, *tensor.Tensor) []float32 {
	return func(t *testing.T, net *nn.Network, x *tensor.Tensor) []float32 {
		qm, err := quant.NewQModel(net, scheme)
		if err != nil {
			t.Fatal(err)
		}
		return append([]float32(nil), qm.ForwardBatch(x, quant.NewQScratch()).Data...)
	}
}

func compile(t testing.TB, net *nn.Network) *procvm.Module {
	t.Helper()
	mod, err := compat.CompileProcVM(net, compat.CompileOptions{Name: "conf"})
	if err != nil {
		t.Fatal(err)
	}
	return mod
}

func moduleRef(t *testing.T, net *nn.Network, x *tensor.Tensor) []float32 {
	mod := compile(t, net)
	rt := procvm.NewRuntime(mod.Caps)
	rt.MaxGas = mod.GasLimit
	rows := x.Dim(0)
	cols := x.Size() / rows
	var out []float32
	for i := 0; i < rows; i++ {
		res, err := rt.Run(mod, x.Data[i*cols:(i+1)*cols])
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, res.Output.Vec...)
	}
	return out
}

func must(t testing.TB) func(Executor, error) Executor {
	return func(ex Executor, err error) Executor {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return ex
	}
}

func conformanceKinds() []conformanceKind {
	return []conformanceKind{
		{
			name:   "float32",
			build:  func(t testing.TB, net *nn.Network) Executor { return must(t)(Float(net)) },
			scheme: quant.Float32, slowdown: 1, steps: 5, legal: []int{0, 1, 2, 3, 4}, ref: floatRef,
		},
		{
			name:   "int8",
			build:  func(t testing.TB, net *nn.Network) Executor { return must(t)(Quant(net, quant.Int8)) },
			scheme: quant.Int8, slowdown: 1, steps: 5, legal: []int{0, 2, 4}, ref: quantRef(quant.Int8),
		},
		{
			name:   "int4",
			build:  func(t testing.TB, net *nn.Network) Executor { return must(t)(Quant(net, quant.Int4)) },
			scheme: quant.Int4, slowdown: 1, steps: 5, legal: []int{0, 2, 4}, ref: quantRef(quant.Int4),
		},
		{
			name: "procvm",
			build: func(t testing.TB, net *nn.Network) Executor {
				mod := compile(t, net)
				return must(t)(Module(mod, mod.Caps, 8, 1234))
			},
			scheme: quant.Float32, slowdown: 1, steps: 1, legal: []int{0}, ref: moduleRef,
		},
		{
			name: "enclave-network",
			build: func(t testing.TB, net *nn.Network) Executor {
				return Hosted(must(t)(Float(net)), 1.5)
			},
			scheme: quant.Float32, slowdown: 1.5, steps: 5, legal: []int{0, 1, 2, 3, 4}, ref: floatRef,
		},
		{
			name: "enclave-int8",
			build: func(t testing.TB, net *nn.Network) Executor {
				return Hosted(must(t)(Quant(net, quant.Int8)), 1.5)
			},
			scheme: quant.Int8, slowdown: 1.5, steps: 5, legal: []int{0, 2, 4}, ref: quantRef(quant.Int8),
		},
		{
			name: "enclave-module",
			build: func(t testing.TB, net *nn.Network) Executor {
				mod := compile(t, net)
				return Hosted(must(t)(Module(mod, mod.Caps, 8, 1234)), 2)
			},
			scheme: quant.Float32, slowdown: 2, steps: 1, legal: []int{0}, ref: moduleRef,
		},
	}
}

// TestExecutorConformance is the one table every executor answers to. Each
// kind, hosted ones included, declares the model's input shape. On a batch
// of three examples: the whole pass equals the independent reference;
// SnapCut is idempotent and leaves exactly the legal cuts alone; and at
// every legal cut, prefix → local suffix, and prefix → encode → decode →
// resume of each example on its own, are bit-identical to the whole pass.
// Misshapen input and foreign payloads come back as errors.
func TestExecutorConformance(t *testing.T) {
	for _, k := range conformanceKinds() {
		t.Run(k.name, func(t *testing.T) {
			net := conformanceModel()
			ex := k.build(t, net)
			n := ex.Steps()
			if n != k.steps || len(ex.Costs()) != n || ex.Scheme() != k.scheme || ex.Slowdown() != k.slowdown || !slices.Equal(ex.InputShape(), []int{8}) {
				t.Fatalf("self-description: %d steps, scheme %v, slowdown %v, input %v",
					n, ex.Scheme(), ex.Slowdown(), ex.InputShape())
			}
			const rows = 3
			x := tensor.Randn(tensor.NewRNG(5), 1, rows, 8)
			want := k.ref(t, net, x)
			ar := engine.NewArena()

			full, err := ex.Run(x, 0, n, ar)
			if err != nil {
				t.Fatal(err)
			}
			if !bitsEqual(full.Data, want) {
				t.Fatalf("whole pass differs from the independent reference")
			}

			legal := map[int]bool{n: true}
			for _, c := range k.legal {
				legal[c] = true
			}
			for c := -1; c <= n+1; c++ {
				s := ex.SnapCut(c)
				if !legal[s] || s > max(c, 0) && s != n || ex.SnapCut(s) != s {
					t.Fatalf("SnapCut(%d) = %d, SnapCut of that = %d", c, s, ex.SnapCut(s))
				}
				if legal[c] && s != c {
					t.Fatalf("SnapCut moved the legal cut %d to %d", c, s)
				}
			}

			for _, cut := range k.legal {
				act, err := ex.Run(x, 0, cut, ar)
				if err != nil {
					t.Fatalf("cut %d: prefix: %v", cut, err)
				}
				act = act.Clone() // the suffix below reuses the arena
				local, err := ex.Run(act, cut, n, ar)
				if err != nil || !bitsEqual(local.Data, want) {
					t.Fatalf("cut %d: prefix → local suffix differs from the whole pass (err %v)", cut, err)
				}
				// The wire carries one example per payload, and each resumes
				// on its own into its row of the whole pass.
				per, outW := act.Size()/rows, len(want)/rows
				for r := 0; r < rows; r++ {
					one := tensor.FromSlice(act.Data[r*per:(r+1)*per], append([]int{1}, act.Shape()[1:]...)...)
					payload, err := ex.EncodeBoundary(one, cut, ar)
					if err != nil {
						t.Fatalf("cut %d: encode: %v", cut, err)
					}
					if _, err := ex.DecodeBoundary(payload[:len(payload)-1], cut, ar); err == nil {
						t.Fatalf("cut %d: truncated payload decoded", cut)
					}
					// The payload crosses a trust boundary: a valid tensor
					// followed by anything else is not a valid payload.
					if _, err := ex.DecodeBoundary(append(payload[:len(payload):len(payload)], 0), cut, ar); err == nil {
						t.Fatalf("cut %d: payload with a trailing byte decoded", cut)
					}
					// Decoded into the arena the payload was encoded in, the
					// boundary resumes in that arena too, as the cloud tier
					// runs it.
					b, err := ex.DecodeBoundary(payload, cut, ar)
					if err != nil {
						t.Fatalf("cut %d: decode: %v", cut, err)
					}
					resumed, err := ex.Resume(b, cut, ar)
					if err != nil || !bitsEqual(resumed.Data, want[r*outW:(r+1)*outW]) {
						t.Fatalf("cut %d row %d: prefix → codec → resume differs from the whole pass (err %v)", cut, r, err)
					}
				}
			}

			// Query-dependent failures are errors, never panics.
			if _, err := ex.Run(tensor.Randn(tensor.NewRNG(6), 1, 1, 3), 0, n, ar); err == nil {
				t.Fatal("3-feature row served by an 8-feature model")
			}
			if _, err := ex.Run(x, 0, n+1, ar); err == nil {
				t.Fatal("step range past the end accepted")
			}
			if _, err := ex.DecodeBoundary([]byte("garbage"), 0, ar); err == nil {
				t.Fatal("garbage payload decoded")
			}
			if _, err := ex.DecodeBoundary(nil, n, ar); err == nil {
				t.Fatal("decoded a boundary at the all-local cut")
			}
		})
	}
}

// TestBoundaryCodecsDoNotCross pins the format discrimination that used to
// live in the cloud tier: an integer executor takes only QAB1 payloads, a
// float executor only tensor-codec ones, each naming the mismatch.
func TestBoundaryCodecsDoNotCross(t *testing.T) {
	net := conformanceModel()
	f, q := must(t)(Float(net)), must(t)(Quant(net, quant.Int8))
	x := tensor.Randn(tensor.NewRNG(7), 1, 1, 8)
	ar := engine.NewArena()
	fp, err := f.EncodeBoundary(x, 0, ar)
	if err != nil {
		t.Fatal(err)
	}
	fp = append([]byte(nil), fp...)
	qp, err := q.EncodeBoundary(x, 0, ar)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.DecodeBoundary(fp, 0, ar); err == nil || !strings.Contains(err.Error(), "requires quantized") {
		t.Fatalf("quant executor on a float payload: %v", err)
	}
	if _, err := f.DecodeBoundary(qp, 0, ar); err == nil || !strings.Contains(err.Error(), "does not accept quantized") {
		t.Fatalf("float executor on a quantized payload: %v", err)
	}
	if _, err := q.DecodeBoundary(qp, 1, ar); err == nil {
		t.Fatal("quant executor resumed at a non-dense stage")
	}
	if len(qp) >= len(fp) {
		t.Fatalf("quantized boundary is %d bytes, float %d: the int8 codec should be the smaller", len(qp), len(fp))
	}
}

// TestFloatExecutorReshapesFlatRows covers the deployment calling
// convention: feature rows arrive as a flat [rows, width] slab even when
// the model's declared input is an image.
func TestFloatExecutorReshapesFlatRows(t *testing.T) {
	rng := tensor.NewRNG(3)
	net := nn.NewNetwork([]int{1, 6, 6},
		nn.NewConv2D(1, 2, 3, 3, 1, 0, rng), nn.NewReLU(), nn.NewFlatten(), nn.NewDense(32, 3, rng))
	ex := must(t)(Float(net))
	img := tensor.Randn(tensor.NewRNG(4), 1, 2, 1, 6, 6)
	want := append([]float32(nil), net.Predict(img).Data...)
	flat := tensor.FromSlice(img.Data, 2, 36)
	got, err := ex.Run(flat, 0, ex.Steps(), engine.NewArena())
	if err != nil {
		t.Fatal(err)
	}
	if !bitsEqual(got.Data, want) {
		t.Fatal("flat rows served differently from the declared image shape")
	}
}

// TestConstructorsRejectUnusableModels covers the construction errors.
func TestConstructorsRejectUnusableModels(t *testing.T) {
	if _, err := Float(nil); err == nil {
		t.Fatal("nil network accepted")
	}
	if _, err := Float(nn.NewNetwork([]int{4})); err == nil {
		t.Fatal("empty network accepted")
	}
	// A window larger than its map used to reach the integer lowering and
	// serve one partial window; now no network holding one can be made (a
	// network whose shapes do not chain cannot be decoded: FuzzExecutorBuild).
	func() {
		defer func() {
			if msg := fmt.Sprint(recover()); !strings.Contains(msg, "window 3×3 does not fit its 2×2 map") {
				t.Errorf("NewNetwork over an oversized window: %s", msg)
			}
		}()
		nn.NewNetwork([]int{1, 2, 2}, nn.NewConv2D(1, 2, 3, 3, 2, 0, tensor.NewRNG(1)), nn.NewFlatten())
	}()
	mod := compile(t, conformanceModel())
	// A module does not declare its width, so its caller must: no executor
	// is built without an input shape.
	for _, width := range []int{0, -1} {
		if _, err := Module(mod, mod.Caps, width, 1); err == nil {
			t.Fatalf("module executor built with input width %d", width)
		}
	}
	denied := must(t)(Module(mod, procvm.CapNone, 8, 1))
	if _, err := denied.Run(tensor.Randn(tensor.NewRNG(2), 1, 1, 8), 0, 1, engine.NewArena()); err == nil {
		t.Fatal("module ran without the capabilities it requires")
	}
}

// TestExecutorsSharedAcrossGoroutines is the cloud tier's usage: one
// executor per registered model, many submitting goroutines, each with its
// own arena. Every goroutine must get the whole-pass bits at every cut.
func TestExecutorsSharedAcrossGoroutines(t *testing.T) {
	for _, k := range conformanceKinds() {
		t.Run(k.name, func(t *testing.T) {
			net := conformanceModel()
			ex := k.build(t, net)
			n := ex.Steps()
			x := tensor.Randn(tensor.NewRNG(9), 1, 2, 8)
			want := k.ref(t, net, x)
			var wg sync.WaitGroup
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					ar := engine.NewArena()
					for rep := 0; rep < 4; rep++ {
						for _, cut := range k.legal {
							act, err := ex.Run(x, 0, cut, ar)
							if err != nil {
								t.Error(err)
								return
							}
							out, err := ex.Run(act.Clone(), cut, n, ar)
							if err != nil || !bitsEqual(out.Data, want) {
								t.Errorf("cut %d: shared executor diverged (err %v)", cut, err)
								return
							}
						}
					}
				}()
			}
			wg.Wait()
		})
	}
}
