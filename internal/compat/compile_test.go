package compat

import (
	"math"
	"strings"
	"sync"
	"testing"

	"tinymlops/internal/nn"
	"tinymlops/internal/procvm"
	"tinymlops/internal/tensor"
)

// runModule executes a compiled module row-by-row over a batch, the way a
// vmRunnable serves it, and returns the concatenated outputs.
func runModule(t *testing.T, m *procvm.Module, x *tensor.Tensor) []float32 {
	t.Helper()
	rt := procvm.NewRuntime(m.Caps)
	if m.GasLimit > rt.MaxGas {
		rt.MaxGas = m.GasLimit
	}
	rows := x.Dim(0)
	inLen := x.Size()
	if rows > 0 {
		inLen = x.Size() / rows
	}
	var out []float32
	for r := 0; r < rows; r++ {
		res, err := rt.Run(m, x.Data[r*inLen:(r+1)*inLen])
		if err != nil {
			t.Fatalf("module run row %d: %v", r, err)
		}
		out = append(out, res.Output.Vec...)
	}
	return out
}

// sameBits treats two floats as equal when their bit patterns match, or
// when both are NaN (payload bits may legitimately differ between the two
// evaluation orders).
func sameBits(a, b float32) bool {
	if math.IsNaN(float64(a)) && math.IsNaN(float64(b)) {
		return true
	}
	return math.Float32bits(a) == math.Float32bits(b)
}

// compileEquivNets is the architecture table for the equivalence property:
// every layer kind the instruction selector lowers, plus the two passes
// (dropout strip, batchnorm fold) that rewrite the graph first.
func compileEquivNets(rng *tensor.RNG) map[string]*nn.Network {
	bnNet := nn.NewNetwork([]int{6},
		nn.NewDense(6, 10, rng), nn.NewBatchNorm1D(10), nn.NewReLU(), nn.NewDense(10, 4, rng))
	// Give the fold non-trivial running statistics: freshly constructed
	// batchnorm is the identity and would make the pass vacuous.
	bn := bnNet.Layers()[1].(*nn.BatchNorm1D)
	for i := 0; i < bn.F; i++ {
		bn.RunMean.Data[i] = rng.Float32()*2 - 1
		bn.RunVar.Data[i] = 0.5 + rng.Float32()
		bn.Gamma.Value.Data[i] = 0.5 + rng.Float32()
		bn.Beta.Value.Data[i] = rng.Float32() - 0.5
	}
	return map[string]*nn.Network{
		"dense-mlp": nn.NewNetwork([]int{5},
			nn.NewDense(5, 12, rng), nn.NewReLU(), nn.NewDense(12, 7, rng),
			nn.NewTanh(), nn.NewDense(7, 3, rng), nn.NewSoftmax()),
		"conv": nn.NewNetwork([]int{2, 8, 8},
			nn.NewConv2D(2, 4, 3, 3, 1, 1, rng), nn.NewReLU(),
			nn.NewMaxPool2D(2, 2), nn.NewFlatten(),
			nn.NewDense(64, 5, rng), nn.NewSigmoid()),
		"batchnorm": bnNet,
		"dropout": nn.NewNetwork([]int{4},
			nn.NewDense(4, 8, rng), nn.NewDropout(0.5, rng), nn.NewReLU(), nn.NewDense(8, 3, rng)),
	}
}

// TestCompileModuleMatchesForwardBatch is the central equivalence property
// of the backend: for every lowerable architecture, the compiled module
// run row-by-row must be bit-identical to the lowered network's
// ForwardBatch — on ordinary inputs, on adversarial rows (NaN, -0, ±Inf,
// denormals) and on the empty batch — and within the fold tolerance of
// the *original* network.
func TestCompileModuleMatchesForwardBatch(t *testing.T) {
	rng := tensor.NewRNG(31)
	for name, net := range compileEquivNets(rng) {
		t.Run(name, func(t *testing.T) {
			m, err := CompileProcVM(net, CompileOptions{Name: name})
			if err != nil {
				t.Fatal(err)
			}
			// The bit-exact reference is the lowered form (what the probes
			// proved): dropout stripped, batchnorm folded.
			lowered := net.Clone()
			dropDropout(lowered)
			if _, err := FoldBatchNorm(lowered); err != nil {
				t.Fatal(err)
			}
			inLen := 1
			for _, d := range net.InputShape {
				inLen *= d
			}
			batches := map[string]*tensor.Tensor{
				"random": tensor.Randn(rng, 1, append([]int{5}, net.InputShape...)...),
				"empty":  tensor.New(append([]int{0}, net.InputShape...)...),
			}
			adv := tensor.New(append([]int{4}, net.InputShape...)...)
			for i := range adv.Data {
				switch i % 5 {
				case 0:
					adv.Data[i] = float32(math.NaN())
				case 1:
					adv.Data[i] = float32(math.Copysign(0, -1)) // -0
				case 2:
					adv.Data[i] = float32(math.Inf(1 - 2*(i%2)))
				case 3:
					adv.Data[i] = 1e-41 // denormal
				default:
					adv.Data[i] = rng.Float32()*4 - 2
				}
			}
			batches["adversarial"] = adv
			for bname, x := range batches {
				got := runModule(t, m, x)
				want := lowered.ForwardBatch(x, nil)
				if len(got) != want.Size() {
					t.Fatalf("%s: module emitted %d values, network %d", bname, len(got), want.Size())
				}
				for i := range got {
					if !sameBits(got[i], want.Data[i]) {
						t.Fatalf("%s: output %d: module %v (bits %08x) != network %v (bits %08x)",
							bname, i, got[i], math.Float32bits(got[i]), want.Data[i], math.Float32bits(want.Data[i]))
					}
				}
				// And the lowered form must stay within the fold tolerance
				// of the original network on finite inputs.
				if bname == "random" {
					orig := net.Predict(x)
					for i := range got {
						if d := float64(got[i] - orig.Data[i]); math.Abs(d) > 1e-4 {
							t.Fatalf("%s: output %d drifted %v from the unlowered network", bname, i, d)
						}
					}
				}
			}
		})
	}
}

// TestCompileRandomArchitecturesProperty sweeps seeded random MLP
// architectures through the compiler: whatever the shape, the module must
// reproduce the network bit-for-bit on fresh random probes. This is the
// property-test form of the compile gate — the gate proves it on the
// compile-time probe batch, this proves it generalizes to inputs the
// compiler never saw.
func TestCompileRandomArchitecturesProperty(t *testing.T) {
	acts := []func() nn.Layer{
		func() nn.Layer { return nn.NewReLU() },
		func() nn.Layer { return nn.NewTanh() },
		func() nn.Layer { return nn.NewSigmoid() },
	}
	for seed := uint64(0); seed < 8; seed++ {
		rng := tensor.NewRNG(100 + seed)
		in := 2 + int(rng.Uint64()%7)
		width := 3 + int(rng.Uint64()%12)
		out := 2 + int(rng.Uint64()%5)
		layers := []nn.Layer{nn.NewDense(in, width, rng), acts[rng.Uint64()%3]()}
		if rng.Uint64()%2 == 0 {
			layers = append(layers, nn.NewDense(width, width, rng), acts[rng.Uint64()%3]())
		}
		layers = append(layers, nn.NewDense(width, out, rng))
		net := nn.NewNetwork([]int{in}, layers...)
		m, err := CompileProcVM(net, CompileOptions{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		x := tensor.Randn(rng, 1, 6, in)
		got := runModule(t, m, x)
		want := net.ForwardBatch(x, nil)
		for i := range got {
			if !sameBits(got[i], want.Data[i]) {
				t.Fatalf("seed %d: output %d: module %v != network %v", seed, i, got[i], want.Data[i])
			}
		}
	}
}

// TestCompileGasDeterministicAcrossWorkers pins the scheduling-
// independence property the chaos fingerprints rely on: gas is a pure
// function of the bytecode and the input length, so any number of
// concurrent runners measure exactly the module's pinned GasLimit — never
// more, never less, never racy.
func TestCompileGasDeterministicAcrossWorkers(t *testing.T) {
	rng := tensor.NewRNG(7)
	net := nn.NewNetwork([]int{6},
		nn.NewDense(6, 16, rng), nn.NewReLU(), nn.NewDense(16, 3, rng))
	m, err := CompileProcVM(net, CompileOptions{Name: "gas"})
	if err != nil {
		t.Fatal(err)
	}
	if m.GasLimit == 0 {
		t.Fatal("compile left GasLimit unpinned")
	}
	for _, workers := range []int{1, 4, 16} {
		gas := make([]uint64, workers*8)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rt := procvm.NewRuntime(m.Caps)
				rt.MaxGas = m.GasLimit
				local := tensor.NewRNG(uint64(w) + 1)
				for q := 0; q < 8; q++ {
					res, err := rt.Run(m, tensor.Randn(local, 1, 1, 6).Data)
					if err != nil {
						t.Error(err)
						return
					}
					gas[w*8+q] = res.GasUsed
				}
			}(w)
		}
		wg.Wait()
		for i, g := range gas {
			if g != m.GasLimit {
				t.Fatalf("workers=%d: run %d used %d gas, want pinned %d", workers, i, g, m.GasLimit)
			}
		}
	}
}

// TestCompileVerifyLoweringGate proves the compile gate is real: a
// batchnorm fold moves float results by a few ULPs, so demanding an
// impossibly tight tolerance must abort the compile through VerifyLowering
// rather than ship a module that silently deviates.
func TestCompileVerifyLoweringGate(t *testing.T) {
	rng := tensor.NewRNG(53)
	net := nn.NewNetwork([]int{6},
		nn.NewDense(6, 24, rng), nn.NewBatchNorm1D(24), nn.NewReLU(), nn.NewDense(24, 4, rng))
	bn := net.Layers()[1].(*nn.BatchNorm1D)
	for i := 0; i < bn.F; i++ {
		bn.RunMean.Data[i] = rng.Float32()*2 - 1
		bn.RunVar.Data[i] = 0.5 + rng.Float32()
		bn.Gamma.Value.Data[i] = 0.5 + rng.Float32()
		bn.Beta.Value.Data[i] = rng.Float32() - 0.5
	}
	if _, err := CompileProcVM(net, CompileOptions{Tol: 1e-30}); err == nil {
		t.Fatal("compile accepted a fold that cannot meet a 1e-30 tolerance")
	} else if !strings.Contains(err.Error(), "lowering gate") {
		t.Fatalf("compile failed outside the lowering gate: %v", err)
	}
	// At the default tolerance the same network compiles.
	if _, err := CompileProcVM(net, CompileOptions{}); err != nil {
		t.Fatalf("default tolerance rejected a valid fold: %v", err)
	}
}

// TestCompileRejectsUnloweredGraphs pins the failure mode: a fold the
// rewriter refuses aborts the compile with a diagnostic instead of
// emitting partial bytecode.
func TestCompileRejectsUnloweredGraphs(t *testing.T) {
	rng := tensor.NewRNG(5)
	// Batchnorm with no preceding dense cannot fold.
	bad := nn.NewNetwork([]int{4}, nn.NewBatchNorm1D(4), nn.NewDense(4, 2, rng))
	if _, err := CompileProcVM(bad, CompileOptions{}); err == nil {
		t.Fatal("compile accepted an unfoldable batchnorm position")
	}
}

// TestCompileWithCapsPinsCapability: a compiled module requires the sensor
// capability every deployment runtime grants.
func TestCompileWithCapsPinsCapability(t *testing.T) {
	rng := tensor.NewRNG(21)
	net := nn.NewNetwork([]int{3}, nn.NewDense(3, 4, rng), nn.NewReLU(), nn.NewDense(4, 2, rng))
	def, err := CompileProcVM(net, CompileOptions{Name: "caps"})
	if err != nil {
		t.Fatal(err)
	}
	if def.Caps != procvm.CapSensor {
		t.Fatalf("default caps %v, want CapSensor", def.Caps)
	}
}
