package exec

import (
	"fmt"
	"sync"

	"tinymlops/internal/engine"
	"tinymlops/internal/nn"
	"tinymlops/internal/tensor"
)

// floatExec runs a network on the float engine's batched fast path. Any
// step range executes as a Subnet view sharing the network's layers, so a
// split performs exactly the floating-point operations the whole pass
// would, and no pass writes layer state.
type floatExec struct {
	graph
	net  *nn.Network
	bits int

	mu    sync.Mutex
	views map[[2]int]*nn.Network // cached Subnets, guarded by mu
}

// Float returns the float-engine executor over net. bits is the variant's
// weight width for the device cost model (≤0 = 32): an integer variant
// served from its fake-quantized float artifact keeps its own width, so
// hardware without it pays the emulation penalty.
func Float(net *nn.Network, bits int) (Executor, error) {
	if bits <= 0 {
		bits = 32
	}
	f := &floatExec{net: net, bits: bits}
	if err := f.init(net); err != nil {
		return nil, err
	}
	return f, nil
}

func (f *floatExec) Bits() int { return f.bits }

// view returns the cached Subnet for [lo, hi); the whole range is the
// network itself.
func (f *floatExec) view(lo, hi int) (*nn.Network, error) {
	if lo == 0 && hi == f.Steps() {
		return f.net, nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	key := [2]int{lo, hi}
	if v, ok := f.views[key]; ok {
		return v, nil
	}
	v, err := f.net.Subnet(lo, hi)
	if err != nil {
		return nil, fmt.Errorf("exec: %w", err)
	}
	if f.views == nil {
		f.views = make(map[[2]int]*nn.Network)
	}
	f.views[key] = v
	return v, nil
}

func (f *floatExec) Run(x *tensor.Tensor, lo, hi int, ar *engine.Arena) (*tensor.Tensor, error) {
	x, err := f.enter(x, lo, hi)
	if err != nil || lo == hi {
		return x, err
	}
	v, err := f.view(lo, hi)
	if err != nil {
		return nil, err
	}
	s := ar.Slot(v, func() any { return nn.NewScratch() }).(*nn.Scratch)
	return v.ForwardBatch(x, s), nil
}

func (f *floatExec) Resume(bs []Boundary, cut int, ar *engine.Arena) (*tensor.Tensor, error) {
	shape, err := f.shapeAt(cut)
	if err != nil {
		return nil, err
	}
	return f.Run(gather(ar, f, bs, shape), cut, f.Steps(), ar)
}
