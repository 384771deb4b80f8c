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
	out, dx   trainBuf
	// dW and dB hold one backward pass's xᵀ·grad and column sums before
	// they are added to the gradients; t a product's transposed operand.
	dW, dB trainBuf
	t      []float32
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
func (d *Dense) Forward(x *tensor.Tensor) *tensor.Tensor {
	d.lastInput = x
	y := d.out.get(x.Dim(0), d.Out)
	d.inferInto(y, x)
	return y
}

// inferInto implements kernel: dst = xW + b with no allocation and no
// backward cache.
func (d *Dense) inferInto(dst, x *tensor.Tensor) {
	tensor.MatMulInto(dst, x, d.W.Value)
	dst.AddRowVector(d.B.Value)
}

// Backward implements Layer: dW += xᵀ·grad ; db += column sums ;
// dx = grad·Wᵀ. Both products run the forward kernel over a transposed
// operand, which skips a ±0 on its left: a zero gradient times an infinite
// weight adds nothing to dx.
func (d *Dense) Backward(grad *tensor.Tensor) *tensor.Tensor {
	d.backwardParams(grad)
	dx := d.dx.get(grad.Dim(0), d.In)
	d.t = transpose(d.t, d.W.Value.Data, d.In, d.Out)
	tensor.MatMulRowsInto(dx.Data, grad.Data, d.t, grad.Dim(0), d.Out, d.In)
	return dx
}

// backwardParams implements paramBackward. Each pass's product is formed in
// the layer's scratch and then added, as Conv2D's are.
func (d *Dense) backwardParams(grad *tensor.Tensor) {
	dW, dB, b := d.dW.get(d.In, d.Out), d.dB.get(d.Out), grad.Dim(0)
	d.t = transpose(d.t, d.lastInput.Data, b, d.In)
	tensor.MatMulRowsInto(dW.Data, d.t, grad.Data, d.In, b, d.Out)
	grad.SumRowsInto(dB)
	d.W.grad().AddInPlace(dW)
	d.B.grad().AddInPlace(dB)
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
	out, dx   trainBuf // headers over the input's and the gradient's data
}

// NewFlatten returns a Flatten layer.
func NewFlatten() *Flatten { return &Flatten{} }

// Kind implements Layer.
func (f *Flatten) Kind() string { return "flatten" }

// Forward implements Layer.
func (f *Flatten) Forward(x *tensor.Tensor) *tensor.Tensor {
	f.lastShape = append(f.lastShape[:0], x.Shape()...)
	return f.out.view(x.Data, x.Dim(0), int(shapeProduct(x.Shape()[1:])))
}

// Backward implements Layer.
func (f *Flatten) Backward(grad *tensor.Tensor) *tensor.Tensor {
	return f.dx.view(grad.Data, f.lastShape...)
}

// Params implements Layer.
func (f *Flatten) Params() []*Param { return nil }

// Describe implements Layer.
func (f *Flatten) Describe(in []int) (LayerInfo, error) {
	n := shapeProduct(in)
	return LayerInfo{OutShape: []int{int(n)}, ActivationFloats: n}, nil
}
