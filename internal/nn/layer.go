package nn

import (
	"fmt"

	"tinymlops/internal/tensor"
)

// Param is a trainable tensor together with its gradient accumulator.
type Param struct {
	// Name identifies the parameter within its layer ("weight", "bias", ...).
	Name string
	// Value is the current parameter tensor.
	Value *tensor.Tensor
	// Grad accumulates the gradient of the loss w.r.t. Value. It has the
	// same shape as Value and is reset by Network.ZeroGrad.
	Grad *tensor.Tensor
}

func newParam(name string, v *tensor.Tensor) *Param {
	return &Param{Name: name, Value: v, Grad: tensor.New(v.Shape()...)}
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
