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

	lastInput *tensor.Tensor
	lastCols  []*tensor.Tensor // per-example im2col buffers
	dcols     *tensor.Tensor   // backward scratch: one example's Wᵀ·g
}

// NewConv2D returns a convolution layer with He-initialized kernels.
func NewConv2D(inC, outC, kh, kw, stride, pad int, rng *tensor.RNG) *Conv2D {
	if stride < 1 {
		panic("nn: conv2d stride must be >= 1")
	}
	fanIn := inC * kh * kw
	std := float32(math.Sqrt(2.0 / float64(fanIn)))
	w := tensor.Randn(rng, std, outC, fanIn)
	b := tensor.New(outC)
	return &Conv2D{InC: inC, OutC: outC, KH: kh, KW: kw, Stride: stride, Pad: pad,
		W: newParam("weight", w), B: newParam("bias", b)}
}

// Kind implements Layer.
func (c *Conv2D) Kind() string { return "conv2d" }

func (c *Conv2D) outHW(h, w int) (int, int) {
	oh := (h+2*c.Pad-c.KH)/c.Stride + 1
	ow := (w+2*c.Pad-c.KW)/c.Stride + 1
	return oh, ow
}

// im2col unrolls one example [inC, h, w] into a [inC*KH*KW, oh*ow] matrix.
func (c *Conv2D) im2col(x []float32, h, w, oh, ow int) *tensor.Tensor {
	cols := tensor.New(c.InC*c.KH*c.KW, oh*ow)
	c.im2colInto(cols, x, h, w, oh, ow)
	return cols
}

// im2colInto unrolls into a caller-owned buffer so the batched inference
// path can reuse one buffer across every example of a batch.
func (c *Conv2D) im2colInto(cols *tensor.Tensor, x []float32, h, w, oh, ow int) {
	cols.Zero()
	idx := 0
	for ch := 0; ch < c.InC; ch++ {
		plane := x[ch*h*w : (ch+1)*h*w]
		for ki := 0; ki < c.KH; ki++ {
			for kj := 0; kj < c.KW; kj++ {
				row := cols.Data[idx*oh*ow : (idx+1)*oh*ow]
				idx++
				p := 0
				for oi := 0; oi < oh; oi++ {
					si := oi*c.Stride + ki - c.Pad
					for oj := 0; oj < ow; oj++ {
						sj := oj*c.Stride + kj - c.Pad
						if si >= 0 && si < h && sj >= 0 && sj < w {
							row[p] = plane[si*w+sj]
						}
						p++
					}
				}
			}
		}
	}
}

// col2im folds a [inC*KH*KW, oh*ow] gradient back into [inC, h, w],
// accumulating overlapping windows.
func (c *Conv2D) col2im(cols *tensor.Tensor, h, w, oh, ow int, dst []float32) {
	idx := 0
	for ch := 0; ch < c.InC; ch++ {
		plane := dst[ch*h*w : (ch+1)*h*w]
		for ki := 0; ki < c.KH; ki++ {
			for kj := 0; kj < c.KW; kj++ {
				row := cols.Data[idx*oh*ow : (idx+1)*oh*ow]
				idx++
				p := 0
				for oi := 0; oi < oh; oi++ {
					si := oi*c.Stride + ki - c.Pad
					for oj := 0; oj < ow; oj++ {
						sj := oj*c.Stride + kj - c.Pad
						if si >= 0 && si < h && sj >= 0 && sj < w {
							plane[si*w+sj] += row[p]
						}
						p++
					}
				}
			}
		}
	}
}

// Forward implements Layer.
func (c *Conv2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.Rank() != 4 || x.Dim(1) != c.InC {
		panic(fmt.Sprintf("nn: conv2d(%d→%d) got input shape %v", c.InC, c.OutC, x.Shape()))
	}
	b, h, w := x.Dim(0), x.Dim(2), x.Dim(3)
	oh, ow := c.outHW(h, w)
	if oh <= 0 || ow <= 0 {
		panic(fmt.Sprintf("nn: conv2d output would be empty for input %v", x.Shape()))
	}
	c.lastInput = x
	c.lastCols = make([]*tensor.Tensor, b)
	out := tensor.New(b, c.OutC, oh, ow)
	ex := h * w * c.InC
	for n := 0; n < b; n++ {
		cols := c.im2col(x.Data[n*ex:(n+1)*ex], h, w, oh, ow)
		c.lastCols[n] = cols
		y := tensor.MatMul(c.W.Value, cols) // [OutC, oh*ow]
		dst := out.Data[n*c.OutC*oh*ow : (n+1)*c.OutC*oh*ow]
		copy(dst, y.Data)
		for oc := 0; oc < c.OutC; oc++ {
			bias := c.B.Value.Data[oc]
			seg := dst[oc*oh*ow : (oc+1)*oh*ow]
			for i := range seg {
				seg[i] += bias
			}
		}
	}
	return out
}

// Backward implements Layer.
func (c *Conv2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	return c.backward(grad, tensor.New(c.lastInput.Shape()...))
}

// backwardParams implements paramBackward.
func (c *Conv2D) backwardParams(grad *tensor.Tensor) { c.backward(grad, nil) }

// backward accumulates the parameter gradients example by example and, when
// dx is non-nil, folds the input gradient into it.
func (c *Conv2D) backward(grad, dx *tensor.Tensor) *tensor.Tensor {
	b := grad.Dim(0)
	oh, ow := grad.Dim(2), grad.Dim(3)
	h, w := c.lastInput.Dim(2), c.lastInput.Dim(3)
	if dx != nil && (c.dcols == nil || c.dcols.Dim(1) != oh*ow) {
		c.dcols = tensor.New(c.InC*c.KH*c.KW, oh*ow)
	}
	ex := c.InC * h * w
	for n := 0; n < b; n++ {
		g := tensor.FromSlice(grad.Data[n*c.OutC*oh*ow:(n+1)*c.OutC*oh*ow], c.OutC, oh*ow)
		// dW += g · colsᵀ
		c.W.Grad.AddInPlace(tensor.MatMulT(g, c.lastCols[n]))
		// db += row sums of g
		for oc := 0; oc < c.OutC; oc++ {
			var s float32
			for _, v := range g.Data[oc*oh*ow : (oc+1)*oh*ow] {
				s += v
			}
			c.B.Grad.Data[oc] += s
		}
		if dx == nil {
			continue
		}
		// dcols = Wᵀ · g, then fold back.
		tensor.TMatMulInto(c.dcols, c.W.Value, g)
		c.col2im(c.dcols, h, w, oh, ow, dx.Data[n*ex:(n+1)*ex])
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
	// outHW cannot tell: its division truncates toward zero, so at stride
	// > 1 a kernel larger than the padded map counts as one window.
	if c.KH > in[1]+2*c.Pad || c.KW > in[2]+2*c.Pad {
		return LayerInfo{}, fmt.Errorf("nn: conv2d kernel %d×%d does not fit input %v padded by %d", c.KH, c.KW, in, c.Pad)
	}
	oh, ow := c.outHW(in[1], in[2])
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
}

// NewMaxPool2D returns a pooling layer with window k and the given stride.
func NewMaxPool2D(k, stride int) *MaxPool2D {
	if k < 1 || stride < 1 {
		panic("nn: maxpool2d window and stride must be >= 1")
	}
	return &MaxPool2D{K: k, Stride: stride}
}

// Kind implements Layer.
func (p *MaxPool2D) Kind() string { return "maxpool2d" }

func (p *MaxPool2D) outHW(h, w int) (int, int) {
	return (h-p.K)/p.Stride + 1, (w-p.K)/p.Stride + 1
}

// Forward implements Layer.
func (p *MaxPool2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.Rank() != 4 {
		panic(fmt.Sprintf("nn: maxpool2d got input shape %v", x.Shape()))
	}
	b, ch, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	oh, ow := p.outHW(h, w)
	p.lastShape = append([]int(nil), x.Shape()...)
	out := tensor.New(b, ch, oh, ow)
	p.lastArgmax = make([]int, out.Size())
	oi := 0
	for n := 0; n < b; n++ {
		for c := 0; c < ch; c++ {
			plane := (n*ch + c) * h * w
			for i := 0; i < oh; i++ {
				for j := 0; j < ow; j++ {
					best := float32(math.Inf(-1))
					bestIdx := -1
					for ki := 0; ki < p.K; ki++ {
						for kj := 0; kj < p.K; kj++ {
							si, sj := i*p.Stride+ki, j*p.Stride+kj
							idx := plane + si*w + sj
							if v := x.Data[idx]; v > best {
								best, bestIdx = v, idx
							}
						}
					}
					out.Data[oi] = best
					p.lastArgmax[oi] = bestIdx
					oi++
				}
			}
		}
	}
	return out
}

// InferInto implements the ForwardBatch fast path: pooling without the
// argmax cache Backward needs.
func (p *MaxPool2D) InferInto(dst, x *tensor.Tensor) {
	if x.Rank() != 4 {
		panic(fmt.Sprintf("nn: maxpool2d got input shape %v", x.Shape()))
	}
	b, ch, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	oh, ow := p.outHW(h, w)
	oi := 0
	for n := 0; n < b; n++ {
		for c := 0; c < ch; c++ {
			plane := (n*ch + c) * h * w
			for i := 0; i < oh; i++ {
				for j := 0; j < ow; j++ {
					best := float32(math.Inf(-1))
					for ki := 0; ki < p.K; ki++ {
						for kj := 0; kj < p.K; kj++ {
							si, sj := i*p.Stride+ki, j*p.Stride+kj
							if v := x.Data[plane+si*w+sj]; v > best {
								best = v
							}
						}
					}
					dst.Data[oi] = best
					oi++
				}
			}
		}
	}
}

// Backward implements Layer.
func (p *MaxPool2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	dx := tensor.New(p.lastShape...)
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
	// As in Conv2D.Describe; here the one window outHW counts would index
	// past the map.
	if p.K > in[1] || p.K > in[2] {
		return LayerInfo{}, fmt.Errorf("nn: maxpool2d window %d does not fit input %v", p.K, in)
	}
	oh, ow := p.outHW(in[1], in[2])
	outN := int64(in[0]) * int64(oh) * int64(ow)
	return LayerInfo{OutShape: []int{in[0], oh, ow}, ActivationFloats: outN}, nil
}
