package quant

import (
	"runtime"
	"testing"

	"tinymlops/internal/nn"
	"tinymlops/internal/tensor"
)

// TestQModelForwardBatchZeroAlloc asserts the integer serving paths are
// allocation-free in the steady state at int8 and int4, over kws-mlp at
// batch 16 (serve_burst's shape), a dense topology with batch norm and a
// convolutional one, at GOMAXPROCS 1 and 2, from a goroutine outside any
// engine pool. One warmup call sizes every scratch buffer.
func TestQModelForwardBatchZeroAlloc(t *testing.T) {
	rng := tensor.NewRNG(11)
	kws := nn.NewNetwork([]int{64},
		nn.NewDense(64, 256, rng), nn.NewReLU(), nn.NewDense(256, 128, rng), nn.NewReLU(), nn.NewDense(128, 10, rng))
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
		{"kws-mlp", kws, tensor.Randn(rng, 1, 16, 64)},
		{"mlp", mlp, tensor.Randn(rng, 1, 16, 64)},
		{"conv", conv, tensor.Randn(rng, 1, 8, 1, 10, 10)},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
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
					t.Errorf("%s/%v at GOMAXPROCS %d: steady-state ForwardBatch allocates %.1f allocs/op, want 0",
						fx.name, scheme, procs, allocs)
				}
			}
		}
	}
}

// TestQTensorPackRoundTrip checks the kernel form end to end: NewQModel
// widens every dense layer's codes, int8 and int4 alike, to the
// interleaved int16 form — an odd row count (9) pads a row pair — and
// reading it back gives the exact codes QuantizeMatrix made, while
// SizeBytes still counts the scheme's nominal width.
func TestQTensorPackRoundTrip(t *testing.T) {
	rng := tensor.NewRNG(5)
	net := nn.NewNetwork([]int{9}, nn.NewDense(9, 7, rng), nn.NewReLU(), nn.NewDense(7, 5, rng))
	for _, scheme := range []Scheme{Int8, Int4, Ternary, Binary} {
		qm, err := NewQModel(net, scheme)
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range []int{0, 2} {
			d := qm.stages[l].(*qDense)
			q, err := QuantizeMatrix(net.Layers()[l].(*nn.Dense).W.Value, scheme)
			if err != nil {
				t.Fatal(err)
			}
			if d.w.Data != nil || len(d.w.Wide) != (q.Rows+1)/2*2*q.Cols {
				t.Fatalf("%v layer %d: Data %d codes, Wide %d values", scheme, l, len(d.w.Data), len(d.w.Wide))
			}
			if got, want := d.w.SizeBytes(), q.SizeBytes(); got != want {
				t.Fatalf("%v layer %d: SizeBytes %d in kernel form, %d as codes", scheme, l, got, want)
			}
			for i := range q.Data {
				if got := weightCode(d.w, i/q.Cols, i%q.Cols); got != q.Data[i] {
					t.Fatalf("%v layer %d: code %d widened %d -> %d", scheme, l, i, q.Data[i], got)
				}
			}
			for j := 0; j < q.Cols && q.Rows&1 == 1; j++ {
				if pad := d.w.Wide[(q.Rows-1)*q.Cols+2*j+1]; pad != 0 {
					t.Fatalf("%v layer %d: column %d pads the odd row with %d", scheme, l, j, pad)
				}
			}
		}
	}
}
