package nn

import "tinymlops/internal/tensor"

// kernel is a layer's stateless inference behind Network.ForwardBatch:
// write the inference output for x into dst without touching any layer
// state. dst has shape [batch, the layer's planned output...] and may hold
// stale values from a previous call, so implementations must write every
// element. Because the contract forbids state writes, any number of
// goroutines may drive the fast path through one shared network.
type kernel interface {
	inferInto(dst, x *tensor.Tensor)
}

// Scratch holds the compiled batch program (see fuse.go) behind
// Network.ForwardBatch, and with it every activation buffer the pass
// writes. One Scratch serves one goroutine and one network; the program is
// compiled on first use and reused while the batch size repeats, so a
// steady-state inference loop allocates nothing at all.
type Scratch struct {
	prog    *program
	progNet *Network
}

// NewScratch returns an empty scratch space.
func NewScratch() *Scratch { return &Scratch{} }

// ForwardBatch runs inference on a batch of B examples ([B, example
// shape...]) through the network's compiled batch program; it is the one
// float inference path, behind Predict and ForwardPrefix too. The output
// is bit-identical to running each layer's own kernel in turn — and
// therefore to B single-example calls — because every fused kernel
// preserves its layers' exact floating-point accumulation order.
//
// The returned tensor aliases scratch storage and is valid until the next
// call with the same Scratch; clone it to retain it. A nil scratch
// compiles a fresh program. The pass performs no writes to the network, so
// concurrent goroutines may share one Network with per-goroutine Scratches
// — the property the fleet engine relies on to serve thousands of
// simulated devices from one model.
//
// An input whose per-example shape is not InputShape is a caller bug and
// panics before any kernel runs; internal/exec checks query shapes before
// it calls here.
func (n *Network) ForwardBatch(x *tensor.Tensor, s *Scratch) *tensor.Tensor {
	n.enter(x)
	if s == nil {
		s = NewScratch()
	}
	// Recompile only when the network or the batch size changed.
	if s.prog == nil || s.progNet != n || s.prog.batch != x.Dim(0) {
		s.prog, s.progNet = n.compileBatch(x.Dim(0)), n
	}
	return s.prog.run(x)
}
