package nn

import (
	"testing"

	"tinymlops/internal/tensor"
)

// TestForwardBatchZeroAlloc asserts the compiled float32 serving path is
// allocation-free in the steady state: after one warmup call (which
// compiles the program and sizes every buffer), repeated ForwardBatch
// calls must not allocate at all. EnterPool reproduces the serving
// context — inside a bounded worker the matmul kernels run serially, so
// the assertion is independent of the host's core count.
func TestForwardBatchZeroAlloc(t *testing.T) {
	rng := tensor.NewRNG(7)
	fixtures := []struct {
		name string
		net  *Network
		in   *tensor.Tensor
	}{
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
	exit := tensor.EnterPool()
	defer exit()
	for _, fx := range fixtures {
		scratch := NewScratch()
		fx.net.ForwardBatch(fx.in, scratch) // warmup: compile + size buffers
		allocs := testing.AllocsPerRun(100, func() {
			fx.net.ForwardBatch(fx.in, scratch)
		})
		if allocs != 0 {
			t.Errorf("%s: steady-state ForwardBatch allocates %.1f allocs/op, want 0", fx.name, allocs)
		}
	}
}

// TestModelCodecAllocationPins bounds what one Clone costs: MarshalBinary
// and UnmarshalNetwork of a 16-32-4 MLP may not allocate more than they did
// at commit 963da02 (22 and 75, go1.24). The federated round clones the
// global model once per worker and ResetFroms it per client; the clone is
// still what every OTA decode and every per-device watermark copy pays.
func TestModelCodecAllocationPins(t *testing.T) {
	rng := tensor.NewRNG(3)
	net := NewNetwork([]int{16}, NewDense(16, 32, rng), NewReLU(), NewDense(32, 4, rng))
	data, err := net.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(100, func() { net.MarshalBinary() }); got > 22 { //nolint:errcheck
		t.Errorf("MarshalBinary allocates %.0f allocs/op, pinned at <= 22", got)
	}
	if got := testing.AllocsPerRun(100, func() { UnmarshalNetwork(data) }); got > 75 { //nolint:errcheck
		t.Errorf("UnmarshalNetwork allocates %.0f allocs/op, pinned at <= 75", got)
	}
}
