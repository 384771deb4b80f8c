package nn

import (
	"fmt"
	"slices"

	"tinymlops/internal/tensor"
)

// Param is a trainable tensor together with its gradient accumulator.
type Param struct {
	// Name identifies the parameter within its layer ("weight", "bias", ...).
	Name string
	// Value is the current parameter tensor.
	Value *tensor.Tensor
	// Grad accumulates the gradient of the loss w.r.t. Value. It has the
	// same shape as Value and is reset by Network.ZeroGrad. It is nil until
	// the parameter first trains: ZeroGrad, a backward pass and an optimizer
	// step allocate it, so a network that only serves holds no gradients.
	Grad *tensor.Tensor
}

func newParam(name string, v *tensor.Tensor) *Param {
	return &Param{Name: name, Value: v}
}

// grad returns p.Grad, allocating it zeroed on first use.
func (p *Param) grad() *tensor.Tensor {
	if p.Grad == nil {
		p.Grad = tensor.New(p.Value.Shape()...)
	}
	return p.Grad
}

// LayerInfo describes the static properties of a layer for a given input
// shape (batch dimension excluded). It drives the device cost model and the
// fragmented-target compatibility checks.
type LayerInfo struct {
	// OutShape is the per-example output shape (batch dimension excluded).
	OutShape []int
	// MACs is the number of multiply-accumulate operations per example.
	MACs int64
	// ParamCount is the number of trainable parameters.
	ParamCount int64
	// ActivationFloats is the number of output floats per example, a proxy
	// for working-set memory.
	ActivationFloats int64
}

// Layer is one differentiable stage of a network.
//
// Forward caches whatever it needs for Backward; a layer therefore supports
// one in-flight forward/backward pair at a time. Concurrent training takes
// a Clone per goroutine, returned to the source between uses by ResetFrom —
// the federated simulation's one scratch network per worker.
//
// The layer owns what Forward(x, true) and Backward return: each is a
// buffer the layer keeps and overwrites on a later pass, valid until the
// layer's next forward pass, so a training step allocates nothing. What
// Forward(x, false) returns belongs to the caller.
type Layer interface {
	// Kind returns the operator type ("dense", "conv2d", "relu", ...), used
	// for serialization and for device op-support matrices.
	Kind() string
	// Forward computes the layer output. train enables training-only
	// behaviour (dropout masks, batch-norm statistics updates).
	Forward(x *tensor.Tensor, train bool) *tensor.Tensor
	// Backward consumes the gradient w.r.t. the layer output and returns
	// the gradient w.r.t. the layer input, accumulating parameter
	// gradients along the way.
	Backward(grad *tensor.Tensor) *tensor.Tensor
	// Params returns the trainable parameters (possibly empty).
	Params() []*Param
	// Describe reports output shape and cost for a per-example input shape.
	Describe(in []int) (LayerInfo, error)
}

func shapeProduct(s []int) int64 {
	p := int64(1)
	for _, d := range s {
		p *= int64(d)
	}
	return p
}

func errShape(kind string, want, got []int) error {
	return fmt.Errorf("nn: %s expects input shape %v, got %v", kind, want, got)
}

// trainBuf is a tensor a layer hands out in training mode — an output or an
// input gradient — kept for the last two shapes asked of it: an epoch
// alternates between its full batch and its short final one, and neither
// allocates after the first epoch. Its contents are stale when handed out.
type trainBuf [2]*tensor.Tensor

// get returns the buffer of the given shape.
func (b *trainBuf) get(shape ...int) *tensor.Tensor {
	for _, t := range b {
		if t != nil && slices.Equal(t.Shape(), shape) {
			return t
		}
	}
	// Cloned so that a caller's shape literal stays on its stack.
	b[0], b[1] = tensor.New(slices.Clone(shape)...), b[0]
	return b[0]
}

// out returns a layer's forward output: the buffer in training mode, a new
// tensor the caller owns otherwise.
func (b *trainBuf) out(train bool, shape ...int) *tensor.Tensor {
	if train {
		return b.get(shape...)
	}
	return tensor.New(slices.Clone(shape)...)
}

// view returns a header of the given shape over data: a reshape that makes
// no header in the steady state (the storage a shape's first call makes is
// dropped).
func (b *trainBuf) view(data []float32, shape ...int) *tensor.Tensor {
	t := b.get(shape...)
	t.Data = data
	return t
}

// transpose writes the row-major [rows, cols] matrix src into dst, grown as
// needed, as its [cols, rows] transpose, dst row by row: a strided read
// costs less than a strided write.
func transpose(dst, src []float32, rows, cols int) []float32 {
	dst = grow(dst, rows*cols)
	for j := 0; j < cols; j++ {
		for i, d := 0, dst[j*rows:(j+1)*rows]; i < rows; i++ {
			d[i] = src[i*cols+j]
		}
	}
	return dst
}

// grow returns s with length n, reallocated only when its capacity is short.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
