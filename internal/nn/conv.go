package nn

import (
	"fmt"
	"math"

	"tinymlops/internal/tensor"
)

// Conv2D is a 2D convolution over [batch, inC, h, w] inputs, implemented
// with im2col + matrix multiply so the heavy lifting reuses the parallel
// matmul kernel.
type Conv2D struct {
	InC, OutC   int
	KH, KW      int
	Stride, Pad int
	W, B        *Param // W is [OutC, InC*KH*KW]

	lastInput         *tensor.Tensor
	lastCols          []float32 // every example's im2col matrix, kept from pass to pass
	out, dx           trainBuf
	dW, wt, ct, dcols []float32 // one example's g·colsᵀ, Wᵀ, colsᵀ and Wᵀ·g
}

// NewConv2D returns a convolution layer with He-initialized kernels. Its
// geometry is checked where a network is made (Describe).
func NewConv2D(inC, outC, kh, kw, stride, pad int, rng *tensor.RNG) *Conv2D {
	fanIn := inC * kh * kw
	std := float32(math.Sqrt(2.0 / float64(fanIn)))
	w := tensor.Randn(rng, std, outC, fanIn)
	b := tensor.New(outC)
	return &Conv2D{InC: inC, OutC: outC, KH: kh, KW: kw, Stride: stride, Pad: pad,
		W: newParam("weight", w), B: newParam("bias", b)}
}

// Kind implements Layer.
func (c *Conv2D) Kind() string { return "conv2d" }

// window returns the layer's sliding window over one [InC, h, w] example;
// tensor.Window is what says whether it fits and how many positions it takes.
func (c *Conv2D) window(h, w int) tensor.Window {
	return tensor.Window{C: c.InC, H: h, W: w, KH: c.KH, KW: c.KW, Stride: c.Stride, Pad: c.Pad}
}

// convolve runs example n of x into example n of dst through the im2col
// workspace cols: Forward's per example, the compiled program's per step.
func (c *Conv2D) convolve(dst, x *tensor.Tensor, n int, g tensor.Window, cols []float32) {
	in, out := g.C*g.H*g.W, dst.Size()/dst.Dim(0)
	tensor.Conv2DInto(dst.Data[n*out:(n+1)*out], c.W.Value.Data, cols, x.Data[n*in:(n+1)*in], c.B.Value.Data, g)
}

// Forward implements Layer, keeping each example's im2col matrix for Backward.
func (c *Conv2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	g := c.window(x.Dim(2), x.Dim(3))
	oh, ow := g.Out()
	c.lastInput = x
	out := c.out.out(train, x.Dim(0), c.OutC, oh, ow)
	size := g.Taps() * oh * ow
	c.lastCols = grow(c.lastCols, x.Dim(0)*size)
	for n := 0; n < x.Dim(0); n++ {
		c.convolve(out, x, n, g, c.lastCols[n*size:(n+1)*size])
	}
	return out
}

// Backward implements Layer.
func (c *Conv2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	return c.backward(grad, c.dx.get(c.lastInput.Shape()...))
}

// backwardParams implements paramBackward.
func (c *Conv2D) backwardParams(grad *tensor.Tensor) { c.backward(grad, nil) }

// backward accumulates the parameter gradients example by example and, when
// dx is non-nil, overwrites it with the input gradient. As in Dense, g·colsᵀ
// skips a ±0 gradient; Wᵀ·g skips a ±0 weight.
func (c *Conv2D) backward(grad, dx *tensor.Tensor) *tensor.Tensor {
	win := c.window(c.lastInput.Dim(2), c.lastInput.Dim(3))
	taps, pos, ex := win.Taps(), grad.Dim(2)*grad.Dim(3), win.C*win.H*win.W
	c.dW = grow(c.dW, c.OutC*taps)
	if dx != nil {
		clear(dx.Data)
		c.wt = transpose(c.wt, c.W.Value.Data, c.OutC, taps)
		c.dcols = grow(c.dcols, taps*pos)
	}
	gw, gb := c.W.grad().Data, c.B.grad().Data
	for n := 0; n < grad.Dim(0); n++ {
		g := grad.Data[n*c.OutC*pos : (n+1)*c.OutC*pos]
		// dW += g · colsᵀ
		c.ct = transpose(c.ct, c.lastCols[n*taps*pos:(n+1)*taps*pos], taps, pos)
		tensor.MatMulRowsInto(c.dW, g, c.ct, c.OutC, pos, taps)
		for i, v := range c.dW {
			gw[i] += v
		}
		// db += row sums of g
		for oc := 0; oc < c.OutC; oc++ {
			var s float32
			for _, v := range g[oc*pos : (oc+1)*pos] {
				s += v
			}
			gb[oc] += s
		}
		if dx == nil {
			continue
		}
		// dcols = Wᵀ · g, then fold back.
		tensor.MatMulRowsInto(c.dcols, c.wt, g, taps, c.OutC, pos)
		tensor.Col2im(dx.Data[n*ex:(n+1)*ex], c.dcols, win)
	}
	return dx
}

// Params implements Layer.
func (c *Conv2D) Params() []*Param { return []*Param{c.W, c.B} }

// Describe implements Layer.
func (c *Conv2D) Describe(in []int) (LayerInfo, error) {
	if len(in) != 3 || in[0] != c.InC {
		return LayerInfo{}, errShape("conv2d", []int{c.InC, -1, -1}, in)
	}
	g := c.window(in[1], in[2])
	if err := g.Check(); err != nil {
		return LayerInfo{}, fmt.Errorf("nn: conv2d: %w", err)
	}
	oh, ow := g.Out()
	outN := int64(c.OutC) * int64(oh) * int64(ow)
	return LayerInfo{
		OutShape:         []int{c.OutC, oh, ow},
		MACs:             outN * int64(c.InC*c.KH*c.KW),
		ParamCount:       int64(c.OutC)*int64(c.InC*c.KH*c.KW) + int64(c.OutC),
		ActivationFloats: outN,
	}, nil
}

// MaxPool2D is a max pooling layer over [batch, c, h, w] inputs.
type MaxPool2D struct {
	K, Stride int

	lastShape  []int
	lastArgmax []int // flat index into input for each output element
	out, dx    trainBuf
}

// NewMaxPool2D returns a pooling layer with window k and the given stride.
// Its geometry is checked where a network is made (Describe).
func NewMaxPool2D(k, stride int) *MaxPool2D { return &MaxPool2D{K: k, Stride: stride} }

// Kind implements Layer.
func (p *MaxPool2D) Kind() string { return "maxpool2d" }

// window returns the pooling window over c [h, w] maps. A batch is pooled
// as one window whose planes are every channel of every example, so that an
// empty batch is zero planes and pools to an empty output.
func (p *MaxPool2D) window(c, h, w int) tensor.Window {
	return tensor.Window{C: c, H: h, W: w, KH: p.K, KW: p.K, Stride: p.Stride}
}

// Forward implements Layer: InferInto's kernel, keeping the argmax.
func (p *MaxPool2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	g := p.window(x.Dim(0)*x.Dim(1), x.Dim(2), x.Dim(3))
	oh, ow := g.Out()
	p.lastShape = append(p.lastShape[:0], x.Shape()...)
	out := p.out.out(train, x.Dim(0), x.Dim(1), oh, ow)
	p.lastArgmax = grow(p.lastArgmax, out.Size())
	tensor.MaxPool(out.Data, x.Data, g, p.lastArgmax)
	return out
}

// InferInto implements the ForwardBatch fast path: pooling without the
// argmax cache Backward needs.
func (p *MaxPool2D) InferInto(dst, x *tensor.Tensor) {
	tensor.MaxPool(dst.Data, x.Data, p.window(x.Dim(0)*x.Dim(1), x.Dim(2), x.Dim(3)), nil)
}

// Backward implements Layer.
func (p *MaxPool2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	dx := p.dx.get(p.lastShape...)
	clear(dx.Data)
	for oi, src := range p.lastArgmax {
		dx.Data[src] += grad.Data[oi]
	}
	return dx
}

// Params implements Layer.
func (p *MaxPool2D) Params() []*Param { return nil }

// Describe implements Layer.
func (p *MaxPool2D) Describe(in []int) (LayerInfo, error) {
	if len(in) != 3 {
		return LayerInfo{}, errShape("maxpool2d", []int{-1, -1, -1}, in)
	}
	g := p.window(in[0], in[1], in[2])
	if err := g.Check(); err != nil {
		return LayerInfo{}, fmt.Errorf("nn: maxpool2d: %w", err)
	}
	oh, ow := g.Out()
	outN := int64(in[0]) * int64(oh) * int64(ow)
	return LayerInfo{OutShape: []int{in[0], oh, ow}, ActivationFloats: outN}, nil
}
