package nn

import (
	"sync"
	"testing"

	"tinymlops/internal/tensor"
)

// layerwise is the unfused reference the compiled program is held to: each
// layer runs its own inference kernel into a fresh tensor — inferInto, or
// for a convolution its per-example im2col product — except that Flatten
// reshapes and Dropout passes its input through. Nothing is fused and no
// buffer is reused.
func layerwise(net *Network, x *tensor.Tensor) *tensor.Tensor {
	net.enter(x)
	for i, l := range net.layers {
		shape := append([]int{x.Dim(0)}, net.plan[i].Info.OutShape...)
		switch l := l.(type) {
		case *Flatten:
			x = tensor.FromSlice(x.Data, shape...)
		case *Dropout:
		case *Conv2D:
			y, g := tensor.New(shape...), l.window(x.Dim(2), x.Dim(3))
			for n := 0; n < x.Dim(0); n++ {
				l.convolve(y, x, n, g, make([]float32, g.Taps()*shape[2]*shape[3]))
			}
			x = y
		default:
			y := tensor.New(shape...)
			l.(kernel).inferInto(y, x)
			x = y
		}
	}
	return x
}

// rowByRow runs every example of x through layerwise individually and
// concatenates the outputs — the single-sample reference path.
func rowByRow(t *testing.T, net *Network, x *tensor.Tensor) *tensor.Tensor {
	t.Helper()
	n := x.Dim(0)
	exampleSize := x.Size() / n
	var out *tensor.Tensor
	for i := 0; i < n; i++ {
		shape := append([]int{1}, x.Shape()[1:]...)
		row := tensor.FromSlice(x.Data[i*exampleSize:(i+1)*exampleSize], shape...)
		y := layerwise(net, row)
		if out == nil {
			out = tensor.New(append([]int{n}, y.Shape()[1:]...)...)
		}
		copy(out.Data[i*y.Size():(i+1)*y.Size()], y.Data)
	}
	return out
}

func requireIdentical(t *testing.T, name string, got, want *tensor.Tensor) {
	t.Helper()
	if !tensor.SameShape(got, want) {
		t.Fatalf("%s: shape %v vs %v", name, got.Shape(), want.Shape())
	}
	for i := range got.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("%s: element %d differs: %v vs %v (outputs must be bit-identical)",
				name, i, got.Data[i], want.Data[i])
		}
	}
}

// TestForwardBatchMatchesSingleSampleMLP checks the acceptance contract:
// ForwardBatch output is byte-identical to the per-sample reference, including
// through batch norm (frozen stats), dropout (identity) and softmax.
func TestForwardBatchMatchesSingleSampleMLP(t *testing.T) {
	rng := tensor.NewRNG(11)
	net := NewNetwork([]int{16},
		NewDense(16, 32, rng), NewBatchNorm1D(32), NewReLU(),
		NewDropout(0.3, rng), NewDense(32, 24, rng), NewTanh(),
		NewDense(24, 5, rng), NewSoftmax())
	// Train a little so batch-norm running statistics are non-trivial.
	x := tensor.Randn(rng, 1, 128, 16)
	labels := make([]int, 128)
	for i := range labels {
		labels[i] = rng.Intn(5)
	}
	if _, err := Train(net, x, labels, TrainConfig{Epochs: 2, BatchSize: 16, Optimizer: NewSGD(0.05), RNG: rng}); err != nil {
		t.Fatal(err)
	}

	for _, batch := range []int{1, 16, 33} {
		in := tensor.Randn(rng, 1, batch, 16)
		want := rowByRow(t, net, in)
		scratch := NewScratch()
		got := net.ForwardBatch(in, scratch)
		requireIdentical(t, "mlp batched vs per-sample", got, want)
		// Scratch reuse must not change results.
		requireIdentical(t, "mlp scratch reuse", net.ForwardBatch(in, scratch), want)
		// Nil scratch allocates per call but computes the same values.
		requireIdentical(t, "mlp nil scratch", net.ForwardBatch(in, nil), want)
		// The unfused reference over the whole batch is the third.
		requireIdentical(t, "mlp layerwise full batch", layerwise(net, in), want)
	}
}

// TestForwardBatchMatchesSingleSampleConv covers the conv/pool/flatten
// fast paths.
func TestForwardBatchMatchesSingleSampleConv(t *testing.T) {
	rng := tensor.NewRNG(13)
	net := NewNetwork([]int{1, 12, 12},
		NewConv2D(1, 4, 3, 3, 1, 1, rng), NewReLU(),
		NewMaxPool2D(2, 2), NewConv2D(4, 8, 3, 3, 1, 0, rng), NewReLU(),
		NewFlatten(), NewDense(8*4*4, 4, rng), NewSoftmax())
	in := tensor.Randn(rng, 1, 9, 1, 12, 12)
	want := rowByRow(t, net, in)
	got := net.ForwardBatch(in, NewScratch())
	requireIdentical(t, "conv batched vs per-sample", got, want)
}

// TestForwardBatchConcurrent drives one shared network from many
// goroutines with per-goroutine scratches; the race detector guards the
// stateless-fast-path contract.
func TestForwardBatchConcurrent(t *testing.T) {
	rng := tensor.NewRNG(17)
	net := NewNetwork([]int{8},
		NewDense(8, 32, rng), NewReLU(), NewBatchNorm1D(32), NewDense(32, 3, rng))
	in := tensor.Randn(rng, 1, 10, 8)
	want := net.ForwardBatch(in, nil).Clone()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			scratch := NewScratch()
			for k := 0; k < 50; k++ {
				got := net.ForwardBatch(in, scratch)
				for i := range got.Data {
					if got.Data[i] != want.Data[i] {
						t.Errorf("concurrent ForwardBatch diverged at %d", i)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestInferenceEntryPointsShareANetwork drives Predict and ForwardPrefix —
// each a compiled program on a fresh Scratch — from many goroutines over one
// conv network: neither writes layer state, so every result is the serial
// one, bit for bit (and the race detector sees no write).
func TestInferenceEntryPointsShareANetwork(t *testing.T) {
	rng := tensor.NewRNG(19)
	net := NewNetwork([]int{1, 8, 8},
		NewConv2D(1, 4, 3, 3, 1, 1, rng), NewReLU(), NewMaxPool2D(2, 2),
		NewFlatten(), NewDense(4*4*4, 3, rng))
	const cut = 3
	in := make([]*tensor.Tensor, 8)
	wantLogits := make([]*tensor.Tensor, 8)
	wantAct := make([]*tensor.Tensor, 8)
	for g := range in {
		in[g] = tensor.Randn(rng, 1, 1+g%3, 1, 8, 8)
		wantLogits[g] = net.Predict(in[g])
		act, err := net.ForwardPrefix(in[g], cut)
		if err != nil {
			t.Fatal(err)
		}
		wantAct[g] = act
	}
	var wg sync.WaitGroup
	for g := range in {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 50; k++ {
				if !bitsEqual(net.Predict(in[g]), wantLogits[g]) {
					t.Errorf("goroutine %d round %d: concurrent Predict differs from the serial result", g, k)
					return
				}
				act, err := net.ForwardPrefix(in[g], cut)
				if err != nil || !bitsEqual(act, wantAct[g]) {
					t.Errorf("goroutine %d round %d: concurrent ForwardPrefix differs from the serial result (err %v)", g, k, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}
