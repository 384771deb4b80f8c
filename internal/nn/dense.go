package nn

import (
	"math"

	"tinymlops/internal/tensor"
)

// Dense is a fully connected layer computing y = xW + b with
// W ∈ [in, out] and b ∈ [out].
type Dense struct {
	In, Out int
	W, B    *Param

	lastInput *tensor.Tensor
	// dW and dB hold one backward pass's xᵀ·grad and column sums before
	// they are added to the accumulated gradients; allocated on the first
	// backward pass and reused by every later one.
	dW, dB *tensor.Tensor
}

// NewDense returns a dense layer with He-initialized weights drawn from rng.
func NewDense(in, out int, rng *tensor.RNG) *Dense {
	std := float32(math.Sqrt(2.0 / float64(in)))
	w := tensor.Randn(rng, std, in, out)
	b := tensor.New(out)
	return &Dense{In: in, Out: out, W: newParam("weight", w), B: newParam("bias", b)}
}

// Kind implements Layer.
func (d *Dense) Kind() string { return "dense" }

// Forward implements Layer.
func (d *Dense) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	d.lastInput = x
	y := tensor.New(x.Dim(0), d.Out)
	d.InferInto(y, x)
	return y
}

// InferInto implements the ForwardBatch fast path: dst = xW + b with no
// allocation and no backward cache.
func (d *Dense) InferInto(dst, x *tensor.Tensor) {
	tensor.MatMulInto(dst, x, d.W.Value)
	dst.AddRowVector(d.B.Value)
}

// Backward implements Layer: dW += xᵀ·grad ; db += column sums ;
// dx = grad·Wᵀ.
func (d *Dense) Backward(grad *tensor.Tensor) *tensor.Tensor {
	d.backwardParams(grad)
	return tensor.MatMulT(grad, d.W.Value)
}

// backwardParams implements paramBackward. Each pass's product is formed in
// the layer's scratch and then added, as the allocating form did, so two
// passes without a ZeroGrad between them accumulate to the same bits.
func (d *Dense) backwardParams(grad *tensor.Tensor) {
	if d.dW == nil {
		// The first pass sizes the scratch with the allocating forms.
		d.dW, d.dB = tensor.TMatMul(d.lastInput, grad), grad.SumRows()
	} else {
		tensor.TMatMulInto(d.dW, d.lastInput, grad)
		grad.SumRowsInto(d.dB)
	}
	d.W.Grad.AddInPlace(d.dW)
	d.B.Grad.AddInPlace(d.dB)
}

// Params implements Layer.
func (d *Dense) Params() []*Param { return []*Param{d.W, d.B} }

// Describe implements Layer.
func (d *Dense) Describe(in []int) (LayerInfo, error) {
	if len(in) != 1 || in[0] != d.In {
		return LayerInfo{}, errShape("dense", []int{d.In}, in)
	}
	return LayerInfo{
		OutShape:         []int{d.Out},
		MACs:             int64(d.In) * int64(d.Out),
		ParamCount:       int64(d.In)*int64(d.Out) + int64(d.Out),
		ActivationFloats: int64(d.Out),
	}, nil
}

// Flatten reshapes [batch, d1, d2, ...] input to [batch, d1*d2*...].
type Flatten struct {
	lastShape []int
}

// NewFlatten returns a Flatten layer.
func NewFlatten() *Flatten { return &Flatten{} }

// Kind implements Layer.
func (f *Flatten) Kind() string { return "flatten" }

// Forward implements Layer.
func (f *Flatten) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	f.lastShape = append([]int(nil), x.Shape()...)
	return x.Reshape(x.Dim(0), -1)
}

// Backward implements Layer.
func (f *Flatten) Backward(grad *tensor.Tensor) *tensor.Tensor {
	return grad.Reshape(f.lastShape...)
}

// Params implements Layer.
func (f *Flatten) Params() []*Param { return nil }

// Describe implements Layer.
func (f *Flatten) Describe(in []int) (LayerInfo, error) {
	n := shapeProduct(in)
	return LayerInfo{OutShape: []int{int(n)}, ActivationFloats: n}, nil
}
