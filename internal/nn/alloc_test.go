package nn

import (
	"runtime"
	"testing"

	"tinymlops/internal/tensor"
)

// TestForwardBatchZeroAlloc asserts the compiled float32 serving path is
// allocation-free in the steady state: after one warmup call (which
// compiles the program and sizes every buffer), repeated ForwardBatch
// calls must not allocate at all, at GOMAXPROCS 1 and 2, from a goroutine
// outside any engine pool — as a benchmark client calls it. kws-mlp at
// batch 16 is serve_burst's shape; dense-bn-act's first product is 2^17
// MACs exactly.
func TestForwardBatchZeroAlloc(t *testing.T) {
	rng := tensor.NewRNG(7)
	fixtures := []struct {
		name string
		net  *Network
		in   *tensor.Tensor
	}{
		{
			"kws-mlp",
			NewNetwork([]int{64},
				NewDense(64, 256, rng), NewReLU(), NewDense(256, 128, rng), NewReLU(), NewDense(128, 10, rng)),
			tensor.Randn(rng, 1, 16, 64),
		},
		{
			"dense-bn-act",
			NewNetwork([]int{64},
				NewDense(64, 128, rng), NewBatchNorm1D(128), NewReLU(),
				NewDense(128, 32, rng), NewTanh(), NewDense(32, 10, rng), NewSoftmax()),
			tensor.Randn(rng, 1, 16, 64),
		},
		{
			"conv-pool-dense",
			NewNetwork([]int{1, 12, 12},
				NewConv2D(1, 4, 3, 3, 1, 1, rng), NewReLU(), NewMaxPool2D(2, 2),
				NewFlatten(), NewDense(4*6*6, 10, rng)),
			tensor.Randn(rng, 1, 8, 1, 12, 12),
		},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		for _, fx := range fixtures {
			scratch := NewScratch()
			fx.net.ForwardBatch(fx.in, scratch) // warmup: compile + size buffers
			allocs := testing.AllocsPerRun(100, func() {
				fx.net.ForwardBatch(fx.in, scratch)
			})
			if allocs != 0 {
				t.Errorf("%s at GOMAXPROCS %d: steady-state ForwardBatch allocates %.1f allocs/op, want 0",
					fx.name, procs, allocs)
			}
		}
	}
}

// TestModelCodecAllocationPins bounds what one Clone costs: MarshalBinary,
// UnmarshalNetwork and Clone of a 16-32-4 MLP may not allocate more than 4,
// 40 and 28 (go1.24). MarshalBinary and UnmarshalNetwork were 22 and 75 at
// commit 963da02 and 13 and 69 while the tensors crossed TMLT1 through
// io.Writer and io.Reader; appending each one and decoding it on the cursor
// left one allocation per encoding and two per decoded tensor. A parameter's
// gradient is allocated when it first trains, not when it is made, which
// took UnmarshalNetwork from 52 and Clone from 40. The federated round
// clones the global model once per worker and ResetFroms it per client; the
// clone is still what every OTA decode and every per-device watermark copy
// pays.
func TestModelCodecAllocationPins(t *testing.T) {
	rng := tensor.NewRNG(3)
	net := NewNetwork([]int{16}, NewDense(16, 32, rng), NewReLU(), NewDense(32, 4, rng))
	data, err := net.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(100, func() { net.MarshalBinary() }); got > 4 { //nolint:errcheck
		t.Errorf("MarshalBinary allocates %.0f allocs/op, pinned at <= 4", got)
	}
	if got := testing.AllocsPerRun(100, func() { UnmarshalNetwork(data) }); got > 40 { //nolint:errcheck
		t.Errorf("UnmarshalNetwork allocates %.0f allocs/op, pinned at <= 40", got)
	}
	if got := testing.AllocsPerRun(100, func() { net.Clone() }); got > 28 {
		t.Errorf("Clone allocates %.0f allocs/op, pinned at <= 28", got)
	}
}

// TestTrainAllocationPins: after a first epoch has sized the network's
// training plan and every layer's training buffers, an epoch allocates
// nothing — the short final batch included — on a dense fixture and on a
// conv fixture that between them reach every layer kind.
func TestTrainAllocationPins(t *testing.T) {
	rng := tensor.NewRNG(8)
	fixtures := []trainFixture{
		denseFixture(rng, NewBatchNorm1D(8), NewReLU(), NewDropout(0.2, rng), NewDense(8, 8, rng), NewTanh(),
			NewDense(8, 8, rng), NewSigmoid(), NewDense(8, 8, rng), NewSoftmax()),
		convFixture(rng, 18, NewReLU(), NewConv2D(2, 2, 3, 3, 1, 1, rng), NewMaxPool2D(2, 2)),
	}
	for _, fx := range fixtures {
		cfg := TrainConfig{BatchSize: 5, Optimizer: NewSGD(0.05), RNG: tensor.NewRNG(9)}
		epoch := func() {
			if _, err := Train(fx.net, fx.x, fx.labels, cfg); err != nil {
				t.Fatal(err)
			}
		}
		epoch() // sizes the plan and the buffers
		if got := testing.AllocsPerRun(20, epoch); got != 0 {
			t.Errorf("%s: a steady-state epoch allocates %.1f, want 0", fx.net.TopologySignature(), got)
		}
	}
}

// TestTrainPlanStaysWithItsNetwork: the plan Train builds belongs to the
// network it trained — Clone starts without one, and ResetFrom keeps the
// copy's own while it compares and copies without allocating.
func TestTrainPlanStaysWithItsNetwork(t *testing.T) {
	fx := denseFixture(tensor.NewRNG(12), NewBatchNorm1D(8))
	trainSeeded(t, fx, fx.net, 1, nil)
	if fx.net.train == nil {
		t.Fatal("Train left no plan on the network")
	}
	c := fx.net.Clone()
	if c.train != nil {
		t.Fatal("Clone copied the training plan")
	}
	trainSeeded(t, fx, c, 2, nil)
	plan := c.train
	if err := c.ResetFrom(fx.net); err != nil { // sizes ResetFrom's scratch
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(20, func() { c.ResetFrom(fx.net) }); got != 0 { //nolint:errcheck
		t.Errorf("a steady-state ResetFrom allocates %.1f, want 0", got)
	}
	if c.train != plan {
		t.Error("ResetFrom dropped the copy's training plan")
	}
}
