package nn

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tinymlops/internal/tensor"
	"tinymlops/internal/wire/wiretest"
)

// goldenNet builds one network that uses all ten layer kinds, with every
// state tensor (biases and batch-norm statistics included) non-trivial.
// testdata/golden.tmln, golden.tmld and compat/testdata/golden.json were
// recorded from it with the encoders of commit 963da02, before the layer
// codecs were rewritten onto the kind table; they pin the three model
// formats byte for byte.
func goldenNet() *Network {
	rng := tensor.NewRNG(1234)
	bn := NewBatchNorm1D(8)
	net := NewNetwork([]int{1, 6, 6},
		NewConv2D(1, 2, 3, 3, 1, 1, rng), NewReLU(), NewMaxPool2D(2, 2), NewFlatten(),
		NewDense(18, 8, rng), bn, NewTanh(), NewDropout(0.25, rng),
		NewDense(8, 4, rng), NewSigmoid(), NewDense(4, 3, rng), NewSoftmax())
	for _, p := range net.Params() {
		if p.Name != "weight" {
			for i := range p.Value.Data {
				p.Value.Data[i] = 0.1 * rng.NormFloat32()
			}
		}
	}
	for i := range bn.RunMean.Data {
		bn.RunMean.Data[i] = rng.NormFloat32()
		bn.RunVar.Data[i] = 0.5 + rng.Float32()
	}
	return net
}

// goldenHeadUpdate is goldenNet with only its last dense layer changed:
// the head-only fine-tune a sparse delta ships.
func goldenHeadUpdate() *Network {
	net := goldenNet()
	head := net.Layers()[10].(*Dense)
	head.W.Value.Data[0] = 42
	head.W.Value.Data[7] = -1.5
	head.B.Value.Data[1] = 0.25
	return net
}

func readGolden(t testing.TB, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestGoldenTMLN1(t *testing.T) {
	want := readGolden(t, "golden.tmln")
	got, err := goldenNet().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("MarshalBinary differs from testdata/golden.tmln (%d vs %d bytes)", len(got), len(want))
	}
	wiretest.Strict(t, want, func(data []byte) ([]byte, error) {
		dec, err := UnmarshalNetwork(data)
		if err != nil {
			return nil, err
		}
		return dec.MarshalBinary()
	})
}

// nonChainingTMLN1 is golden.tmln with its input width patched from 6 to 8:
// every layer is still well-formed against its own tensors, but the
// flattened map is now 24 wide, and the first dense layer takes 18.
func nonChainingTMLN1(t testing.TB) []byte {
	data := readGolden(t, "golden.tmln")
	binary.LittleEndian.PutUint32(data[len(netMagic)+4+8:], 8) // [1 6 6] → [1 6 8]
	return data
}

// TestGoldenTMLN1RefusesNonChaining: admission belongs to the decoder. A
// network whose shapes do not chain used to decode and be refused only when
// an executor was built over it.
func TestGoldenTMLN1RefusesNonChaining(t *testing.T) {
	_, err := UnmarshalNetwork(nonChainingTMLN1(t))
	if err == nil || !strings.Contains(err.Error(), "layer 4 (dense): nn: dense expects input shape [18], got [24]") {
		t.Fatalf("UnmarshalNetwork of a non-chaining artifact: %v", err)
	}
}

func TestGoldenTMLD1(t *testing.T) {
	want := readGolden(t, "golden.tmld")
	base, target := goldenNet(), goldenHeadUpdate()
	got, err := EncodeDelta(base, target)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("EncodeDelta differs from testdata/golden.tmld (%d vs %d bytes)", len(got), len(want))
	}
	applied, err := ApplyDelta(base, want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(marshalOrDie(t, applied), marshalOrDie(t, target)) {
		t.Fatal("applying golden.tmld does not reproduce the head update")
	}
	cost, err := CostOfDelta(want, 8)
	if err != nil {
		t.Fatal(err)
	}
	if cost.ChangedParams != 3 || cost.TotalParams != base.ParamCount()+16 {
		t.Fatalf("cost of golden.tmld: %+v", cost)
	}
	// Both TMLD1 consumers share walkDelta, and must reject alike.
	wiretest.Strict(t, want, func(data []byte) ([]byte, error) {
		_, costErr := CostOfDelta(data, 8)
		applied, err := ApplyDelta(base, data)
		if (err == nil) != (costErr == nil) {
			t.Errorf("ApplyDelta = %v but CostOfDelta = %v", err, costErr)
		}
		if err != nil {
			return nil, err
		}
		return EncodeDelta(base, applied)
	})
}

// FuzzUnmarshalNetwork feeds arbitrary bytes to the TMLN1 decoder: it
// must reject with an error and never panic, whatever it accepts must carry
// a plan entry per layer, and re-marshal to bytes that decode back to those
// same bytes.
func FuzzUnmarshalNetwork(f *testing.F) {
	golden := readGolden(f, "golden.tmln")
	f.Add(golden)
	f.Add(golden[:len(golden)/2])
	f.Add(golden[:len(netMagic)+4])
	f.Add([]byte(netMagic))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		net, err := UnmarshalNetwork(data)
		if err != nil {
			return
		}
		if plan, _ := net.Summary(); len(plan) != len(net.Layers()) {
			t.Fatalf("decoded %d layers with a plan of %d", len(net.Layers()), len(plan))
		}
		first, err := net.MarshalBinary()
		if err != nil {
			t.Fatalf("accepted network does not marshal: %v", err)
		}
		again, err := UnmarshalNetwork(first)
		if err != nil {
			t.Fatalf("re-marshalled network does not decode: %v", err)
		}
		second, err := again.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, second) {
			t.Fatal("marshal → unmarshal → marshal is not a fixed point")
		}
	})
}
