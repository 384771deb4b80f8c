package nn

import "tinymlops/internal/tensor"

// ReLU is the rectified linear activation max(0, x).
type ReLU struct {
	lastInput *tensor.Tensor
	out, dx   trainBuf
}

// NewReLU returns a ReLU layer.
func NewReLU() *ReLU { return &ReLU{} }

// Kind implements Layer.
func (r *ReLU) Kind() string { return "relu" }

// Forward implements Layer.
func (r *ReLU) Forward(x *tensor.Tensor) *tensor.Tensor {
	r.lastInput = x
	out := r.out.get(x.Shape()...)
	r.inferInto(out, x)
	return out
}

// inferInto implements kernel.
func (r *ReLU) inferInto(dst, x *tensor.Tensor) { tensor.ReLU(dst.Data, x.Data) }

// Backward implements Layer.
func (r *ReLU) Backward(grad *tensor.Tensor) *tensor.Tensor {
	out := r.dx.get(grad.Shape()...)
	for i, v := range r.lastInput.Data {
		out.Data[i] = 0
		if v > 0 {
			out.Data[i] = grad.Data[i]
		}
	}
	return out
}

// Params implements Layer.
func (r *ReLU) Params() []*Param { return nil }

// Describe implements Layer.
func (r *ReLU) Describe(in []int) (LayerInfo, error) {
	return LayerInfo{OutShape: append([]int(nil), in...), ActivationFloats: shapeProduct(in)}, nil
}

// Sigmoid is the logistic activation 1/(1+e^-x).
type Sigmoid struct {
	lastOutput *tensor.Tensor
	out, dx    trainBuf
}

// NewSigmoid returns a Sigmoid layer.
func NewSigmoid() *Sigmoid { return &Sigmoid{} }

// Kind implements Layer.
func (s *Sigmoid) Kind() string { return "sigmoid" }

// Forward implements Layer.
func (s *Sigmoid) Forward(x *tensor.Tensor) *tensor.Tensor {
	out := s.out.get(x.Shape()...)
	s.inferInto(out, x)
	s.lastOutput = out
	return out
}

// inferInto implements kernel.
func (s *Sigmoid) inferInto(dst, x *tensor.Tensor) { tensor.Sigmoid(dst.Data, x.Data) }

// Backward implements Layer.
func (s *Sigmoid) Backward(grad *tensor.Tensor) *tensor.Tensor {
	out := s.dx.get(grad.Shape()...)
	for i, y := range s.lastOutput.Data {
		out.Data[i] = grad.Data[i] * y * (1 - y)
	}
	return out
}

// Params implements Layer.
func (s *Sigmoid) Params() []*Param { return nil }

// Describe implements Layer.
func (s *Sigmoid) Describe(in []int) (LayerInfo, error) {
	n := shapeProduct(in)
	return LayerInfo{OutShape: append([]int(nil), in...), MACs: 4 * n, ActivationFloats: n}, nil
}

// Tanh is the hyperbolic tangent activation.
type Tanh struct {
	lastOutput *tensor.Tensor
	out, dx    trainBuf
}

// NewTanh returns a Tanh layer.
func NewTanh() *Tanh { return &Tanh{} }

// Kind implements Layer.
func (t *Tanh) Kind() string { return "tanh" }

// Forward implements Layer.
func (t *Tanh) Forward(x *tensor.Tensor) *tensor.Tensor {
	out := t.out.get(x.Shape()...)
	t.inferInto(out, x)
	t.lastOutput = out
	return out
}

// inferInto implements kernel.
func (t *Tanh) inferInto(dst, x *tensor.Tensor) { tensor.Tanh(dst.Data, x.Data) }

// Backward implements Layer.
func (t *Tanh) Backward(grad *tensor.Tensor) *tensor.Tensor {
	out := t.dx.get(grad.Shape()...)
	for i, y := range t.lastOutput.Data {
		out.Data[i] = grad.Data[i] * (1 - y*y)
	}
	return out
}

// Params implements Layer.
func (t *Tanh) Params() []*Param { return nil }

// Describe implements Layer.
func (t *Tanh) Describe(in []int) (LayerInfo, error) {
	n := shapeProduct(in)
	return LayerInfo{OutShape: append([]int(nil), in...), MACs: 4 * n, ActivationFloats: n}, nil
}

// Softmax converts logits to probabilities row-wise. In classification
// networks prefer ending with raw logits and training them with Train,
// which fuses this layer with the loss for numerical stability; an explicit
// Softmax layer is still useful for inference-only pipelines and for the
// prediction-poisoning defenses that perturb probability vectors.
type Softmax struct {
	lastOutput *tensor.Tensor
	out, dx    trainBuf
}

// NewSoftmax returns a Softmax layer.
func NewSoftmax() *Softmax { return &Softmax{} }

// Kind implements Layer.
func (s *Softmax) Kind() string { return "softmax" }

// Forward implements Layer.
func (s *Softmax) Forward(x *tensor.Tensor) *tensor.Tensor {
	out := s.out.get(x.Shape()...)
	s.inferInto(out, x)
	s.lastOutput = out
	return out
}

// inferInto implements kernel.
func (s *Softmax) inferInto(dst, x *tensor.Tensor) {
	tensor.SoftmaxRows(dst.Data, x.Data, x.Dim(0), x.Dim(1))
}

// Backward implements Layer.
func (s *Softmax) Backward(grad *tensor.Tensor) *tensor.Tensor {
	// dx_i = y_i * (g_i - sum_j g_j y_j), row-wise.
	rows, cols := grad.Dim(0), grad.Dim(1)
	out := s.dx.get(rows, cols)
	for i := 0; i < rows; i++ {
		g := grad.Data[i*cols : (i+1)*cols]
		y := s.lastOutput.Data[i*cols : (i+1)*cols]
		var dot float32
		for j := range g {
			dot += g[j] * y[j]
		}
		o := out.Data[i*cols : (i+1)*cols]
		for j := range g {
			o[j] = y[j] * (g[j] - dot)
		}
	}
	return out
}

// Params implements Layer.
func (s *Softmax) Params() []*Param { return nil }

// Describe implements Layer. The kernel normalizes each example's row, so
// a per-example shape of any rank but 1 is refused.
func (s *Softmax) Describe(in []int) (LayerInfo, error) {
	if len(in) != 1 {
		return LayerInfo{}, errShape("softmax", []int{-1}, in)
	}
	n := shapeProduct(in)
	return LayerInfo{OutShape: append([]int(nil), in...), MACs: 3 * n, ActivationFloats: n}, nil
}

// SoftmaxRows returns row-wise softmax of a 2D tensor using the max-shift
// trick for numerical stability.
func SoftmaxRows(x *tensor.Tensor) *tensor.Tensor {
	out := tensor.New(x.Dim(0), x.Dim(1))
	tensor.SoftmaxRows(out.Data, x.Data, x.Dim(0), x.Dim(1))
	return out
}
