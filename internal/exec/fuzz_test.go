package exec

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"

	"tinymlops/internal/engine"
	"tinymlops/internal/nn"
	"tinymlops/internal/quant"
	"tinymlops/internal/tensor"
)

// nonChaining is golden.tmln with its input width patched from 6 to 8: every
// layer is well-formed against its own tensors, and the flattened map no
// longer fits the first dense layer. It is what a non-chaining artifact
// looks like on the wire; the decoder refuses it, so no executor sees it.
func nonChaining(golden []byte) []byte {
	data := append([]byte(nil), golden...)
	binary.LittleEndian.PutUint32(data[len("TMLN1\n")+4+8:], 8) // [1 6 6] → [1 6 8]
	return data
}

// FuzzExecutorBuild decodes arbitrary bytes as a TMLN1 artifact and hands
// the network to every network executor. A network that decodes was
// admitted — its shapes chain — so each constructor either refuses (the
// integer runtime may lack a kernel), or returns an executor that has a
// cost per step and serves a row of its declared shape whole and split at
// every cut it allows, bit-identically, without panicking. Before the
// decoder admitted networks, nonChaining decoded, and each executor had to
// refuse it; before executors resolved their costs at build, Float accepted
// it and panicked in the dense kernel on the first whole pass.
func FuzzExecutorBuild(f *testing.F) {
	golden, err := os.ReadFile(filepath.Join("..", "nn", "testdata", "golden.tmln"))
	if err != nil {
		f.Fatal(err)
	}
	if _, err := nn.UnmarshalNetwork(nonChaining(golden)); err == nil {
		f.Fatal("the decoder admitted a network whose shapes do not chain")
	}
	conformance, err := conformanceModel().MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	for _, data := range [][]byte{golden, nonChaining(golden), conformance} {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		net, err := nn.UnmarshalNetwork(data)
		if err != nil {
			return // refused by the decoder
		}
		// Keep the fuzzer from asking for gigabytes: a small declared input
		// and small activations.
		const maxFloats = 1 << 14
		if Width(net.InputShape) > maxFloats {
			return
		}
		costs, _ := net.Summary()
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
			if len(costs) == 0 {
				if err == nil {
					t.Fatalf("%s: executor built over a network with no layers", b.name)
				}
				continue
			}
			if err != nil {
				if b.name == "float" {
					t.Fatalf("float: refused an admitted network: %v", err)
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
