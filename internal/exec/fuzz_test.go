package exec

import (
	"os"
	"path/filepath"
	"testing"

	"tinymlops/internal/engine"
	"tinymlops/internal/nn"
	"tinymlops/internal/quant"
	"tinymlops/internal/tensor"
)

// nonChaining is a network every layer of which is well-formed and whose
// shapes do not chain: a 4-wide input into a 5-wide dense layer. The TMLN1
// decoder checks each layer against its own tensors only, so this is what a
// decoded artifact can look like when it reaches a constructor.
func nonChaining() *nn.Network {
	return nn.NewNetwork([]int{4}, nn.NewDense(5, 2, tensor.NewRNG(1)), nn.NewReLU())
}

// FuzzExecutorBuild decodes arbitrary bytes as a TMLN1 artifact and hands
// the network to every network executor. Geometry is a build-time fact, so
// each constructor either refuses, or returns an executor that has a cost
// per step and serves a row of its declared shape whole and split at every
// cut it allows, bit-identically, without panicking. Before the cost list
// was resolved at build, Float accepted nonChaining and panicked in the
// dense kernel on the first whole pass.
func FuzzExecutorBuild(f *testing.F) {
	golden, err := os.ReadFile(filepath.Join("..", "nn", "testdata", "golden.tmln"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	for _, net := range []*nn.Network{nonChaining(), conformanceModel()} {
		data, err := net.MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		net, err := nn.UnmarshalNetwork(data)
		if err != nil {
			return
		}
		// Keep the fuzzer from asking for gigabytes: a small declared input
		// and, where the shapes chain, small activations.
		const maxFloats = 1 << 14
		if Width(net.InputShape) > maxFloats {
			return
		}
		costs, chainErr := net.Summary()
		for _, c := range costs {
			if c.Info.ActivationFloats > maxFloats {
				return
			}
		}
		for _, b := range []struct {
			name  string
			build func() (Executor, error)
		}{
			{"float", func() (Executor, error) { return Float(net, 32) }},
			{"int8", func() (Executor, error) { return Quant(net, quant.Int8) }},
			{"int4", func() (Executor, error) { return Quant(net, quant.Int4) }},
		} {
			ex, err := b.build()
			if chainErr != nil || len(costs) == 0 {
				if err == nil {
					t.Fatalf("%s: executor built over a network that does not shape-infer (%v)", b.name, chainErr)
				}
				continue
			}
			if err != nil {
				if b.name == "float" {
					t.Fatalf("float: refused a network that shape-infers: %v", err)
				}
				continue // the integer runtime may lack a kernel for a kind
			}
			serveWholeAndSplit(t, b.name, ex)
		}
	})
}

// serveWholeAndSplit runs one zero row through ex whole, and through prefix
// → encode → decode → resume at every cut SnapCut allows.
func serveWholeAndSplit(t *testing.T, name string, ex Executor) {
	n := ex.Steps()
	if len(ex.Costs()) != n {
		t.Fatalf("%s: %d costs for %d steps", name, len(ex.Costs()), n)
	}
	x := tensor.New(append([]int{1}, ex.InputShape()...)...)
	ar := engine.NewArena()
	full, err := ex.Run(x, 0, n, ar)
	if err != nil {
		t.Fatalf("%s: whole pass on a row of the declared shape: %v", name, err)
	}
	want := append([]float32(nil), full.Data...)
	for c := 0; c < n; c++ {
		cut := ex.SnapCut(c)
		if cut != c {
			continue
		}
		act, err := ex.Run(x, 0, cut, ar)
		if err != nil {
			t.Fatalf("%s: cut %d: prefix: %v", name, cut, err)
		}
		payload, err := ex.EncodeBoundary(act, cut, ar)
		if err != nil {
			t.Fatalf("%s: cut %d: encode: %v", name, cut, err)
		}
		b, err := ex.DecodeBoundary(payload, cut)
		if err != nil {
			t.Fatalf("%s: cut %d: decode: %v", name, cut, err)
		}
		resumed, err := ex.Resume([]Boundary{b}, cut, engine.NewArena())
		if err != nil {
			t.Fatalf("%s: cut %d: resume: %v", name, cut, err)
		}
		if !bitsEqual(resumed.Data, want) {
			t.Fatalf("%s: cut %d: split pass differs from the whole pass", name, cut)
		}
	}
}
