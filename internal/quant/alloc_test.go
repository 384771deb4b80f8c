package quant

import (
	"fmt"
	"testing"

	"tinymlops/internal/nn"
	"tinymlops/internal/tensor"
)

// TestQModelForwardBatchZeroAlloc asserts the integer serving paths are
// allocation-free in the steady state for both the int8 kernels and the
// packed int4 kernels, over a dense topology and a convolutional one.
// One warmup call sizes every scratch buffer; EnterPool pins the kernels
// to their serial in-worker form so the result is machine-independent.
func TestQModelForwardBatchZeroAlloc(t *testing.T) {
	rng := tensor.NewRNG(11)
	mlp := nn.NewNetwork([]int{64},
		nn.NewDense(64, 128, rng), nn.NewBatchNorm1D(128), nn.NewReLU(),
		nn.NewDense(128, 10, rng), nn.NewSoftmax())
	conv := nn.NewNetwork([]int{1, 10, 10},
		nn.NewConv2D(1, 4, 3, 3, 1, 1, rng), nn.NewReLU(), nn.NewMaxPool2D(2, 2),
		nn.NewFlatten(), nn.NewDense(4*5*5, 6, rng))
	fixtures := []struct {
		name string
		net  *nn.Network
		in   *tensor.Tensor
	}{
		{"mlp", mlp, tensor.Randn(rng, 1, 16, 64)},
		{"conv", conv, tensor.Randn(rng, 1, 8, 1, 10, 10)},
	}
	exit := tensor.EnterPool()
	defer exit()
	for _, fx := range fixtures {
		for _, scheme := range []Scheme{Int8, Int4} {
			qm, err := NewQModel(fx.net, scheme)
			if err != nil {
				t.Fatal(err)
			}
			scratch := NewQScratch()
			qm.ForwardBatch(fx.in, scratch) // warmup sizes all buffers
			allocs := testing.AllocsPerRun(100, func() {
				qm.ForwardBatch(fx.in, scratch)
			})
			if allocs != 0 {
				t.Errorf("%s/%v: steady-state ForwardBatch allocates %.1f allocs/op, want 0",
					fx.name, scheme, allocs)
			}
		}
	}
}

// TestQTensorPackRoundTrip checks the packed storage form end to end:
// packing then unpacking restores the exact codes, Dequantize reads both
// forms identically, and SizeBytes is storage-form independent.
func TestQTensorPackRoundTrip(t *testing.T) {
	rng := tensor.NewRNG(5)
	w := tensor.Randn(rng, 1, 9, 7) // odd cols exercise the pad nibble
	q, err := QuantizeMatrix(w, Int4)
	if err != nil {
		t.Fatal(err)
	}
	codes := append([]int8(nil), q.Data...)
	deq := q.Dequantize()
	size := q.SizeBytes()
	if err := q.PackInt4(); err != nil {
		t.Fatal(err)
	}
	if !q.IsPacked() || q.Data != nil {
		t.Fatal("PackInt4 left the tensor unpacked")
	}
	if got := q.SizeBytes(); got != size {
		t.Fatalf("SizeBytes changed across packing: %d vs %d", got, size)
	}
	deqPacked := q.Dequantize()
	for i := range deq.Data {
		if deq.Data[i] != deqPacked.Data[i] {
			t.Fatalf("Dequantize differs at %d: %v vs %v", i, deq.Data[i], deqPacked.Data[i])
		}
	}
	if err := q.PackInt4(); err != nil {
		t.Fatalf("PackInt4 on packed tensor: %v", err)
	}
	for i := range codes {
		if got := q.code(i/q.Cols, i%q.Cols); got != codes[i] {
			t.Fatalf("code %d round-tripped %d -> %d", i, codes[i], got)
		}
	}
	// Non-int4 schemes must refuse to pack.
	q8, err := QuantizeMatrix(w, Int8)
	if err != nil {
		t.Fatal(err)
	}
	if err := q8.PackInt4(); err == nil {
		t.Fatal("PackInt4 accepted an int8 tensor")
	}
	_ = fmt.Sprintf("%v", q8.Scheme) // keep fmt imported alongside future cases
}
