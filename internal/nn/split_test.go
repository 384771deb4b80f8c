package nn

import (
	"bytes"
	"math"
	"testing"

	"tinymlops/internal/tensor"
)

// splitNets returns the network zoo the partitioned-execution contract is
// verified against, with a matching input batch for each.
func splitNets(t *testing.T) []struct {
	name string
	net  *Network
	x    *tensor.Tensor
} {
	t.Helper()
	rng := tensor.NewRNG(7)
	mlp := NewNetwork([]int{6},
		NewDense(6, 16, rng), NewReLU(),
		NewDense(16, 16, rng), NewTanh(),
		NewDense(16, 4, rng), NewSoftmax())
	bn := NewNetwork([]int{8},
		NewDense(8, 12, rng), NewBatchNorm1D(12), NewSigmoid(),
		NewDropout(0.5, rng),
		NewDense(12, 3, rng))
	conv := NewNetwork([]int{1, 8, 8},
		NewConv2D(1, 4, 3, 3, 1, 1, rng), NewReLU(),
		NewMaxPool2D(2, 2), NewFlatten(),
		NewDense(4*4*4, 5, rng))
	mk := func(shape ...int) *tensor.Tensor {
		x := tensor.New(shape...)
		for i := range x.Data {
			x.Data[i] = rng.NormFloat32()
		}
		return x
	}
	// Run a training forward through the batch-norm net so its running
	// statistics are non-trivial before inference-mode comparison.
	bn.Forward(mk(4, 8), true)
	return []struct {
		name string
		net  *Network
		x    *tensor.Tensor
	}{
		{"mlp", mlp, mk(3, 6)},
		{"batchnorm", bn, mk(3, 8)},
		{"conv", conv, mk(2, 1, 8, 8)},
	}
}

func bitsEqual(a, b *tensor.Tensor) bool {
	if len(a.Data) != len(b.Data) {
		return false
	}
	for i := range a.Data {
		if math.Float32bits(a.Data[i]) != math.Float32bits(b.Data[i]) {
			return false
		}
	}
	return true
}

// TestSplitBitExactAtEveryCut is the partitioned-execution contract:
// prefix + suffix, with the boundary activation round-tripped through the
// tensor codec (the serialized handoff an edge–cloud split performs), is
// bit-identical to the monolithic forward pass at every possible cut.
func TestSplitBitExactAtEveryCut(t *testing.T) {
	for _, c := range splitNets(t) {
		want := c.net.Forward(c.x, false)
		n := len(c.net.Layers())
		for cut := 0; cut <= n; cut++ {
			act, err := c.net.ForwardPrefix(c.x, cut)
			if err != nil {
				t.Fatalf("%s cut %d: prefix: %v", c.name, cut, err)
			}
			// Serialize the boundary activation exactly as the offload
			// plane ships it.
			var buf bytes.Buffer
			if _, err := act.WriteTo(&buf); err != nil {
				t.Fatalf("%s cut %d: encode: %v", c.name, cut, err)
			}
			var wire tensor.Tensor
			if _, err := wire.ReadFrom(&buf); err != nil {
				t.Fatalf("%s cut %d: decode: %v", c.name, cut, err)
			}
			suffix, err := c.net.Subnet(cut, n)
			if err != nil {
				t.Fatalf("%s cut %d: suffix: %v", c.name, cut, err)
			}
			got := suffix.Forward(&wire, false)
			if !bitsEqual(got, want) {
				t.Fatalf("%s cut %d: split output differs from monolithic Forward", c.name, cut)
			}
		}
	}
}

// TestSubnetForwardBatchMatchesSuffix pins the cloud serving path: the
// suffix subnet's batched fast path must be bit-identical to the plain
// suffix — and therefore to the monolithic forward.
func TestSubnetForwardBatchMatchesSuffix(t *testing.T) {
	for _, c := range splitNets(t) {
		want := c.net.Forward(c.x, false)
		n := len(c.net.Layers())
		for cut := 0; cut < n; cut++ {
			act, err := c.net.ForwardPrefix(c.x, cut)
			if err != nil {
				t.Fatal(err)
			}
			suffix, err := c.net.Subnet(cut, n)
			if err != nil {
				t.Fatalf("%s cut %d: subnet: %v", c.name, cut, err)
			}
			got := suffix.ForwardBatch(act, NewScratch())
			if !bitsEqual(got, want) {
				t.Fatalf("%s cut %d: suffix ForwardBatch differs from monolithic Forward", c.name, cut)
			}
		}
	}
}

// TestSubnetSharesWeights verifies that a subnet is a view, not a copy: a
// weight edit through the parent is visible to the suffix.
func TestSubnetSharesWeights(t *testing.T) {
	rng := tensor.NewRNG(3)
	net := NewNetwork([]int{4}, NewDense(4, 4, rng), NewReLU(), NewDense(4, 2, rng))
	suffix, err := net.Subnet(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.FromSlice([]float32{1, 0, -1, 2}, 1, 4)
	act, err := net.ForwardPrefix(x, 2)
	if err != nil {
		t.Fatal(err)
	}
	before := suffix.Forward(act, false).Data[0]
	net.Layers()[2].(*Dense).W.Value.Data[0] += 1
	after := suffix.Forward(act, false).Data[0]
	if before == after {
		t.Fatal("subnet did not observe the parent's weight mutation")
	}
}

func TestSplitValidation(t *testing.T) {
	rng := tensor.NewRNG(5)
	net := NewNetwork([]int{4}, NewDense(4, 2, rng))
	x := tensor.New(1, 4)
	if _, err := net.ForwardPrefix(x, -1); err == nil {
		t.Fatal("accepted negative cut")
	}
	if _, err := net.ForwardPrefix(x, 2); err == nil {
		t.Fatal("accepted cut past the last layer")
	}
	if _, err := net.Subnet(1, 0); err == nil {
		t.Fatal("accepted inverted subnet range")
	}
}
