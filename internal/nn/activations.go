package nn

import (
	"math"

	"tinymlops/internal/tensor"
)

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
func (r *ReLU) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	r.lastInput = x
	out := r.out.out(train, x.Shape()...)
	r.InferInto(out, x)
	return out
}

// InferInto implements the ForwardBatch fast path.
func (r *ReLU) InferInto(dst, x *tensor.Tensor) {
	for i, v := range x.Data {
		if v > 0 {
			dst.Data[i] = v
		} else {
			dst.Data[i] = 0
		}
	}
}

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
func (s *Sigmoid) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	out := s.out.out(train, x.Shape()...)
	s.InferInto(out, x)
	s.lastOutput = out
	return out
}

// InferInto implements the ForwardBatch fast path.
func (s *Sigmoid) InferInto(dst, x *tensor.Tensor) {
	for i, v := range x.Data {
		dst.Data[i] = float32(1 / (1 + math.Exp(-float64(v))))
	}
}

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
func (t *Tanh) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	out := t.out.out(train, x.Shape()...)
	t.InferInto(out, x)
	t.lastOutput = out
	return out
}

// InferInto implements the ForwardBatch fast path.
func (t *Tanh) InferInto(dst, x *tensor.Tensor) {
	for i, v := range x.Data {
		dst.Data[i] = float32(math.Tanh(float64(v)))
	}
}

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
func (s *Softmax) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	out := s.out.out(train, x.Shape()...)
	softmaxRowsInto(out, x)
	s.lastOutput = out
	return out
}

// InferInto implements the ForwardBatch fast path.
func (s *Softmax) InferInto(dst, x *tensor.Tensor) {
	softmaxRowsInto(dst, x)
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

// Describe implements Layer.
func (s *Softmax) Describe(in []int) (LayerInfo, error) {
	n := shapeProduct(in)
	return LayerInfo{OutShape: append([]int(nil), in...), MACs: 3 * n, ActivationFloats: n}, nil
}

// SoftmaxRows returns row-wise softmax of a 2D tensor using the max-shift
// trick for numerical stability.
func SoftmaxRows(x *tensor.Tensor) *tensor.Tensor {
	out := tensor.New(x.Dim(0), x.Dim(1))
	softmaxRowsInto(out, x)
	return out
}

// softmaxRowsInto writes row-wise softmax of x into out without allocating.
func softmaxRowsInto(out, x *tensor.Tensor) {
	rows, cols := x.Dim(0), x.Dim(1)
	for i := 0; i < rows; i++ {
		row := x.Data[i*cols : (i+1)*cols]
		m := row[0]
		for _, v := range row[1:] {
			if v > m {
				m = v
			}
		}
		var sum float64
		o := out.Data[i*cols : (i+1)*cols]
		for j, v := range row {
			e := math.Exp(float64(v - m))
			o[j] = float32(e)
			sum += e
		}
		inv := float32(1 / sum)
		for j := range o {
			o[j] *= inv
		}
	}
}
