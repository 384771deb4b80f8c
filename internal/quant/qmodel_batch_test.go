package quant

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"

	"tinymlops/internal/engine"
	"tinymlops/internal/nn"
	"tinymlops/internal/tensor"
)

// refForward executes a QModel with naive scalar loops: per-example
// activation quantization, a scalar triple-loop int8 matmul for dense
// stages, a direct (non-im2col) integer convolution for conv stages, and
// the float network's inference of the layer alone for float stages. Integer accumulation is exact,
// so the blocked kernels must reproduce this reference bit for bit.
func refForward(m *QModel, x *tensor.Tensor) *tensor.Tensor {
	for _, st := range m.stages {
		switch s := st.(type) {
		case *qDense:
			rows := x.Dim(0)
			codes := make([]int8, x.Size())
			scales := make([]float32, rows)
			QuantizeActivationsRows(x, codes, scales)
			out := tensor.New(rows, s.w.Cols)
			for i := 0; i < rows; i++ {
				for j := 0; j < s.w.Cols; j++ {
					var acc int32
					for p := 0; p < s.w.Rows; p++ {
						// weightCode reads the interleaved form, so int8 and
						// int4 meet the same reference.
						acc += int32(codes[i*s.w.Rows+p]) * int32(weightCode(s.w, p, j))
					}
					out.Data[i*s.w.Cols+j] = float32(acc)*scales[i]*s.w.Scales[j] + s.bias[j]
				}
			}
			x = out
		case *qConv2D:
			b, h, w := x.Dim(0), x.Dim(2), x.Dim(3)
			oh, ow := (h+2*s.win.Pad-s.win.KH)/s.win.Stride+1, (w+2*s.win.Pad-s.win.KW)/s.win.Stride+1
			ex := s.win.C * h * w
			codes := make([]int8, x.Size())
			scales := make([]float32, b)
			QuantizeActivationsRows(x, codes, scales)
			out := tensor.New(b, s.outC, oh, ow)
			for n := 0; n < b; n++ {
				for oc := 0; oc < s.outC; oc++ {
					for oi := 0; oi < oh; oi++ {
						for oj := 0; oj < ow; oj++ {
							var acc int32
							for ic := 0; ic < s.win.C; ic++ {
								for ki := 0; ki < s.win.KH; ki++ {
									for kj := 0; kj < s.win.KW; kj++ {
										si, sj := oi*s.win.Stride+ki-s.win.Pad, oj*s.win.Stride+kj-s.win.Pad
										if si < 0 || si >= h || sj < 0 || sj >= w {
											continue
										}
										wc := s.w[oc*s.win.C*s.win.KH*s.win.KW+(ic*s.win.KH+ki)*s.win.KW+kj]
										xc := codes[n*ex+(ic*h+si)*w+sj]
										acc += int32(wc) * int32(xc)
									}
								}
							}
							out.Data[((n*s.outC+oc)*oh+oi)*ow+oj] =
								float32(acc)*s.wScales[oc]*scales[n] + s.bias[oc]
						}
					}
				}
			}
			x = out
		case *qFloat:
			x = nn.NewNetwork(x.Shape()[1:], s.net.Layers()...).Predict(x)
		default:
			panic(fmt.Sprintf("unknown stage %T", st))
		}
	}
	return x
}

// weightCode returns the code at (i, j) of a dense stage's weights, read
// from the interleaved int16 form the kernel multiplies: row pair i/2,
// column j, the half i&1.
func weightCode(q *QTensor, i, j int) int8 {
	return int8(q.Wide[i>>1*2*q.Cols+2*j+i&1])
}

// perSample runs every example of x through m.ForwardBatch individually and
// concatenates the outputs — the single-sample reference path (mirrors
// nn/batch_test.go's rowByRow).
func perSample(t *testing.T, m *QModel, x *tensor.Tensor) *tensor.Tensor {
	t.Helper()
	n := x.Dim(0)
	es := x.Size() / n
	var out *tensor.Tensor
	for i := 0; i < n; i++ {
		shape := append([]int{1}, x.Shape()[1:]...)
		row := tensor.FromSlice(x.Data[i*es:(i+1)*es], shape...)
		y := m.ForwardBatch(row, nil)
		if out == nil {
			out = tensor.New(append([]int{n}, y.Shape()[1:]...)...)
		}
		copy(out.Data[i*y.Size():(i+1)*y.Size()], y.Data)
	}
	return out
}

func mustIdentical(t *testing.T, name string, got, want *tensor.Tensor) {
	t.Helper()
	if !tensor.SameShape(got, want) {
		t.Fatalf("%s: shape %v vs %v", name, got.Shape(), want.Shape())
	}
	for i := range got.Data {
		if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
			t.Fatalf("%s: element %d differs: %v vs %v (outputs must be bit-identical)",
				name, i, got.Data[i], want.Data[i])
		}
	}
}

// qmodelFixtures returns the (network, input) pairs the bit-exactness
// property is checked over: a dense stack with batch norm, a conv stack,
// a dense stack fed NaN and signed-zero payloads, a conv whose product is
// past 2^17 MACs (wideConv), and a dense stack through a sigmoid, the one
// float kind no other row serves.
func qmodelFixtures(t *testing.T) []struct {
	name string
	net  *nn.Network
	in   *tensor.Tensor
} {
	t.Helper()
	rng := tensor.NewRNG(91)
	mlp := nn.NewNetwork([]int{12},
		nn.NewDense(12, 24, rng), nn.NewBatchNorm1D(24), nn.NewReLU(),
		nn.NewDropout(0.3, rng), nn.NewDense(24, 16, rng), nn.NewTanh(),
		nn.NewDense(16, 5, rng), nn.NewSoftmax())
	// Train a little so batch-norm running statistics are non-trivial.
	x := tensor.Randn(rng, 1, 96, 12)
	labels := make([]int, 96)
	for i := range labels {
		labels[i] = rng.Intn(5)
	}
	if _, err := nn.Train(mlp, x, labels, nn.TrainConfig{
		Epochs: 2, BatchSize: 16, Optimizer: nn.NewSGD(0.05), RNG: rng,
	}); err != nil {
		t.Fatal(err)
	}
	conv := nn.NewNetwork([]int{1, 10, 10},
		nn.NewConv2D(1, 4, 3, 3, 1, 1, rng), nn.NewReLU(),
		nn.NewMaxPool2D(2, 2), nn.NewConv2D(4, 6, 3, 3, 1, 0, rng), nn.NewReLU(),
		nn.NewFlatten(), nn.NewDense(6*3*3, 4, rng), nn.NewSoftmax())

	weird := tensor.Randn(rng, 1, 7, 12)
	weird.Data[0] = float32(math.NaN())
	weird.Data[5] = float32(math.Copysign(0, -1))
	weird.Data[17] = float32(math.NaN())
	wide := wideConv(rng)

	return []struct {
		name string
		net  *nn.Network
		in   *tensor.Tensor
	}{
		{"mlp-batchnorm", mlp, tensor.Randn(rng, 1, 17, 12)},
		{"conv", conv, tensor.Randn(rng, 1, 9, 1, 10, 10)},
		{"nan-negzero", mlp, weird},
		{"conv-parallel", wide, tensor.Randn(rng, 1, 3, 8, 16, 16)},
		{"sigmoid", nn.NewNetwork([]int{6}, nn.NewDense(6, 10, rng), nn.NewSigmoid(), nn.NewDense(10, 3, rng)),
			tensor.Randn(rng, 1, 11, 6)},
	}
}

// wideConv is an 8→16 3×3 convolution over 16×16 maps, padded to keep
// them: its product is 16 output channels × 72 taps × 256 spots, 294,912
// MACs.
func wideConv(rng *tensor.RNG) *nn.Network {
	return nn.NewNetwork([]int{8, 16, 16},
		nn.NewConv2D(8, 16, 3, 3, 1, 1, rng), nn.NewReLU(),
		nn.NewFlatten(), nn.NewDense(16*16*16, 4, rng))
}

// TestQModelForwardBatchBitExact is the integer runtime's acceptance
// property: for every fixture and every scheme, ForwardBatch over a
// batch, ForwardBatch example by example, and the naive scalar reference all
// produce bit-identical outputs — including scratch reuse, nil scratch,
// NaN/-0 payloads and the empty batch.
func TestQModelForwardBatchBitExact(t *testing.T) {
	for _, fx := range qmodelFixtures(t) {
		for _, scheme := range []Scheme{Int8, Int4, Ternary, Binary} {
			qm, err := NewQModel(fx.net, scheme)
			if err != nil {
				t.Fatalf("%s/%v: %v", fx.name, scheme, err)
			}
			name := fmt.Sprintf("%s/%v", fx.name, scheme)
			want := refForward(qm, fx.in)
			scratch := NewQScratch()
			got := qm.ForwardBatch(fx.in, scratch)
			mustIdentical(t, name+" batched vs scalar reference", got, want)
			// Scratch reuse must not change results.
			mustIdentical(t, name+" scratch reuse", qm.ForwardBatch(fx.in, scratch), want)
			// Nil scratch allocates per call but computes the same values.
			mustIdentical(t, name+" nil scratch", qm.ForwardBatch(fx.in, nil), want)
			// Per-example dynamic quantization makes a per-sample pass
			// bit-identical to the batched one.
			mustIdentical(t, name+" per-sample", perSample(t, qm, fx.in), want)

			// Empty batches flow through without touching a kernel.
			empty := tensor.New(append([]int{0}, fx.in.Shape()[1:]...)...)
			out := qm.ForwardBatch(empty, scratch)
			if out.Dim(0) != 0 {
				t.Fatalf("%s: empty batch produced %v", name, out.Shape())
			}
		}
	}
}

// TestQModelConcurrentServing drives one shared QModel from 64 goroutines
// with per-goroutine scratches, fanned out over engine pools of 1, 4 and
// 16 workers — the serving topology a fleet round uses. The race detector
// guards the no-state-writes contract; the values guard bit-exactness.
func TestQModelConcurrentServing(t *testing.T) {
	rng := tensor.NewRNG(97)
	net := nn.NewNetwork([]int{8},
		nn.NewDense(8, 32, rng), nn.NewReLU(), nn.NewBatchNorm1D(32), nn.NewDense(32, 3, rng))
	qm, err := NewQModel(net, Int8)
	if err != nil {
		t.Fatal(err)
	}
	in := tensor.Randn(rng, 1, 10, 8)
	want := qm.ForwardBatch(in, nil)
	for _, workers := range []int{1, 4, 16} {
		eng := engine.New(engine.Config{Workers: workers})
		var mu sync.Mutex
		var diverged string
		err := eng.ForEach(64, func(i int) error {
			scratch := NewQScratch()
			for k := 0; k < 20; k++ {
				got := qm.ForwardBatch(in, scratch)
				for j := range got.Data {
					if math.Float32bits(got.Data[j]) != math.Float32bits(want.Data[j]) {
						mu.Lock()
						diverged = fmt.Sprintf("goroutine %d iteration %d element %d", i, k, j)
						mu.Unlock()
						return nil
					}
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if diverged != "" {
			t.Fatalf("workers=%d: concurrent ForwardBatch diverged at %s", workers, diverged)
		}
	}
}

// TestNewQModelErrorPaths is the table-driven error contract: float schemes
// are rejected with an error, never lowered silently. A window larger than
// its map used to lower too, and convolve one partial window on every
// query; now no network holding one can be made, so NewQModel never sees it.
func TestNewQModelErrorPaths(t *testing.T) {
	rng := tensor.NewRNG(98)
	plain := nn.NewNetwork([]int{4}, nn.NewDense(4, 2, rng))
	cases := []struct {
		name   string
		scheme Scheme
		ok     bool
	}{
		{"float32 scheme rejected", Float32, false},
		{"plain dense int8 accepted", Int8, true},
		{"plain dense binary accepted", Binary, true},
	}
	for _, c := range cases {
		qm, err := NewQModel(plain, c.scheme)
		if c.ok && (err != nil || qm == nil) {
			t.Fatalf("%s: unexpected error %v", c.name, err)
		}
		if !c.ok && err == nil {
			t.Fatalf("%s: error expected", c.name)
		}
	}
	func() {
		defer func() {
			if msg := fmt.Sprint(recover()); !strings.Contains(msg, "window 3×3 does not fit its 2×2 map") {
				t.Errorf("NewNetwork over a window larger than its map: %s", msg)
			}
		}()
		nn.NewNetwork([]int{1, 2, 2}, nn.NewConv2D(1, 2, 3, 3, 2, 0, rng), nn.NewFlatten())
	}()
}

// TestQConvRefusesMapSmallerThanWindow: a batch whose maps are smaller than
// the kernel the model was lowered with used to convolve one partial window,
// then panicked inside the stage. Geometry is fixed at build, so that batch,
// a mis-ranked dense batch and a mis-sized one are all refused by the one
// check where a pass enters — before any stage sizes a buffer or runs a
// kernel, which the untouched scratch shows.
func TestQConvRefusesMapSmallerThanWindow(t *testing.T) {
	conv := nn.NewNetwork([]int{1, 4, 4}, nn.NewConv2D(1, 2, 3, 3, 2, 0, tensor.NewRNG(7)), nn.NewFlatten())
	dense := nn.NewNetwork([]int{6}, nn.NewDense(6, 3, tensor.NewRNG(7)), nn.NewReLU())
	for _, c := range []struct {
		name string
		net  *nn.Network
		in   *tensor.Tensor
	}{
		{"2×2 maps under a 3×3 kernel", conv, tensor.New(1, 1, 2, 2)},
		{"mis-ranked dense batch", dense, tensor.New(2, 3, 2)},
		{"mis-sized dense batch", dense, tensor.New(2, 5)},
	} {
		qm, err := NewQModel(c.net, Int8)
		if err != nil {
			t.Fatal(err)
		}
		s := NewQScratch()
		func() {
			defer func() {
				if msg := fmt.Sprint(recover()); !strings.Contains(msg, "does not fit") {
					t.Errorf("%s: %s", c.name, msg)
				}
			}()
			qm.ForwardBatch(c.in, s)
		}()
		if len(s.bufs) != 0 || s.codes != nil || s.rowScales != nil {
			t.Errorf("%s: a stage ran before the batch was refused", c.name)
		}
	}
}

// TestQScratchBufferReuse pins what a scratch holds and when it allocates.
// For an MLP of kws-mlp's shape, one of sensor-mlp's and a conv → pool →
// flatten → dense net, at int8 and int4: after a batch of b rows every
// stage's output is [b, the shape Summary reports there...]; a second batch
// of b rows reuses the same storage; and b → b' → b replaces the stage
// outputs, whose batch dimension changed, and nothing else — the int8,
// widened-column and scale workspaces sized for the larger batch serve the
// smaller one.
func TestQScratchBufferReuse(t *testing.T) {
	rng := tensor.NewRNG(99)
	nets := []struct {
		name string
		net  *nn.Network
	}{
		{"kws-mlp", nn.NewNetwork([]int{64},
			nn.NewDense(64, 256, rng), nn.NewReLU(), nn.NewDense(256, 128, rng), nn.NewReLU(), nn.NewDense(128, 10, rng))},
		{"sensor-mlp", nn.NewNetwork([]int{4}, nn.NewDense(4, 16, rng), nn.NewReLU(), nn.NewDense(16, 3, rng))},
		{"conv", nn.NewNetwork([]int{2, 9, 7},
			nn.NewConv2D(2, 3, 3, 2, 2, 1, rng), nn.NewReLU(), nn.NewMaxPool2D(2, 1), nn.NewFlatten(), nn.NewDense(3*4*3, 5, rng))},
	}
	for _, fx := range nets {
		costs, err := fx.net.Summary()
		if err != nil {
			t.Fatal(err)
		}
		for _, scheme := range []Scheme{Int8, Int4} {
			name := fmt.Sprintf("%s/%v", fx.name, scheme)
			qm, err := NewQModel(fx.net, scheme)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			s := NewQScratch()
			batch := func(b int) *tensor.Tensor {
				return tensor.Randn(rng, 1, append([]int{b}, fx.net.InputShape...)...)
			}
			// holds checks every stage's output after a pass over in against
			// Summary and returns where each one's storage starts. An integer
			// stage's output is its scratch buffer; a float stage's is read
			// through its program, run again on the output before it, which
			// at the same batch size writes the buffers it already holds.
			// Flatten's output is its input's storage.
			holds := func(in *tensor.Tensor) []*float32 {
				t.Helper()
				b, x := in.Dim(0), in
				at := make([]*float32, len(costs))
				for i, c := range costs {
					got := func() *tensor.Tensor {
						if f, ok := qm.stages[i].(*qFloat); ok {
							return f.net.ForwardBatch(x, &s.progs[i])
						}
						return s.bufs[i]
					}()
					want := append([]int{b}, c.Info.OutShape...)
					if !slices.Equal(got.Shape(), want) || got.Size() != b*int(c.Info.ActivationFloats) {
						t.Fatalf("%s: stage %d (%s) output is %v with %d elements, Summary says %v",
							name, i, c.Kind, got.Shape(), got.Size(), want)
					}
					at[i], x = &got.Data[0], got
				}
				return at
			}
			const b, smaller = 16, 4
			in := batch(b)
			want := append([]float32(nil), qm.ForwardBatch(in, s).Data...)
			first := holds(in)
			codes, cols, wide, scales := cap(s.codes), cap(s.cols), cap(s.wide), cap(s.rowScales)
			qm.ForwardBatch(in, s)
			if second := holds(in); !slices.Equal(first, second) {
				t.Fatalf("%s: a second batch of %d rows did not reuse the stage outputs", name, b)
			}
			small := batch(smaller)
			qm.ForwardBatch(small, s)
			holds(small)
			got := qm.ForwardBatch(in, s)
			holds(in)
			mustIdentical(t, name+" after b → b' → b", got, tensor.FromSlice(want, got.Shape()...))
			if cap(s.codes) != codes || cap(s.cols) != cols || cap(s.wide) != wide || cap(s.rowScales) != scales {
				t.Fatalf("%s: b → b' → b reallocated a workspace: codes %d→%d, cols %d→%d, wide %d→%d, scales %d→%d",
					name, codes, cap(s.codes), cols, cap(s.cols), wide, cap(s.wide), scales, cap(s.rowScales))
			}
		}
	}
}
