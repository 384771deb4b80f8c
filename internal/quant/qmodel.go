package quant

import (
	"fmt"
	"slices"

	"tinymlops/internal/nn"
	"tinymlops/internal/tensor"
)

// QModel is a quantized executable derived from an nn.Network: dense and
// convolutional layers run on the blocked integer kernel with dynamically
// quantized activations (one symmetric int8 scale per example, like a
// microcontroller runtime quantizing each incoming sample), everything
// else runs in float32 through the stateless inference fast paths. A
// QModel never writes to itself during inference, so one model may serve
// any number of goroutines as long as each brings its own QScratch.
//
// Numerical contract: every example is quantized and executed
// independently, so ForwardBatch over a batch, Predict row by row, and a
// naive scalar int8 reference all produce bit-identical outputs. Against
// the fake-quantized float reference (FakeQuantizeNetwork at the same
// scheme) the only deviation is dynamic activation quantization: each
// quantized activation differs from its float value by at most half the
// example's activation scale, i.e. absMax(example)/254 per element.
type QModel struct {
	InputShape []int
	Scheme     Scheme

	stages []qStage
}

// qStage is one executable stage of a QModel. run may use s's reusable
// buffers keyed by idx; the returned tensor is valid until the next call
// with the same scratch.
type qStage interface {
	run(x *tensor.Tensor, s *QScratch, idx int) *tensor.Tensor
	sizeBytes() int
}

// QScratch holds the reusable buffers behind QModel.ForwardBatch: one
// float activation buffer per stage plus shared int8 code, im2col and
// scale workspaces, reshape headers and per-stage shape caches. One
// QScratch serves one goroutine and one model; everything grows on first
// use and is reused while shapes repeat, so a steady-state serving loop
// allocates nothing at all — asserted with testing.AllocsPerRun in the
// alloc tests. All per-call caches live here rather than on the stages
// because a QModel is shared read-only across goroutines.
type QScratch struct {
	bufs      []*tensor.Tensor
	hdrs      []*tensor.Tensor // Flatten views aliasing the input's data
	inShapes  [][]int          // per-stage cached input shape (sans batch)
	outShapes [][]int          // per-stage cached Describe output shape
	codes     []int8
	cols      []int8
	rowScales []float32
	colScales []float32
}

// NewQScratch returns an empty scratch space for integer-kernel inference.
func NewQScratch() *QScratch { return &QScratch{} }

// buffer returns the cached float buffer for stage idx reshaped to shape,
// reallocating only when the element count changed.
func (s *QScratch) buffer(idx int, shape []int) *tensor.Tensor {
	for len(s.bufs) <= idx {
		s.bufs = append(s.bufs, nil)
	}
	n := 1
	for _, d := range shape {
		n *= d
	}
	if b := s.bufs[idx]; b != nil && b.Size() == n {
		if !slices.Equal(b.Shape(), shape) {
			b = tensor.FromSlice(b.Data, shape...)
			s.bufs[idx] = b
		}
		return b
	}
	b := tensor.New(shape...)
	s.bufs[idx] = b
	return b
}

// buffer2 is buffer for the [r, c] matrix case with an allocation-free
// steady state: while the requested shape repeats, the cached tensor is
// returned untouched.
func (s *QScratch) buffer2(idx, r, c int) *tensor.Tensor {
	for len(s.bufs) <= idx {
		s.bufs = append(s.bufs, nil)
	}
	if b := s.bufs[idx]; b != nil && b.Rank() == 2 && b.Dim(0) == r && b.Dim(1) == c {
		return b
	}
	b := tensor.New(r, c)
	s.bufs[idx] = b
	return b
}

// buffer4 is buffer2 for the [b, c, h, w] feature-map case.
func (s *QScratch) buffer4(idx, n, c, h, w int) *tensor.Tensor {
	for len(s.bufs) <= idx {
		s.bufs = append(s.bufs, nil)
	}
	if b := s.bufs[idx]; b != nil && b.Rank() == 4 &&
		b.Dim(0) == n && b.Dim(1) == c && b.Dim(2) == h && b.Dim(3) == w {
		return b
	}
	b := tensor.New(n, c, h, w)
	s.bufs[idx] = b
	return b
}

// flatView returns a [b, per] tensor aliasing data, reusing the cached
// header while the shape repeats — Flatten without a per-call allocation.
func (s *QScratch) flatView(idx int, data []float32, b, per int) *tensor.Tensor {
	for len(s.hdrs) <= idx {
		s.hdrs = append(s.hdrs, nil)
	}
	if h := s.hdrs[idx]; h != nil && h.Dim(0) == b && h.Dim(1) == per {
		h.Data = data
		return h
	}
	h := tensor.FromSlice(data, b, per)
	s.hdrs[idx] = h
	return h
}

// stageOutShape returns the cached Describe output shape for stage idx,
// recomputing (and caching the input shape) only when the per-example
// input shape changed since the last call.
func (s *QScratch) stageOutShape(idx int, l nn.Layer, x *tensor.Tensor) ([]int, error) {
	for len(s.inShapes) <= idx {
		s.inShapes = append(s.inShapes, nil)
		s.outShapes = append(s.outShapes, nil)
	}
	in := x.Shape()[1:]
	if cached := s.inShapes[idx]; cached != nil && slices.Equal(cached, in) {
		return s.outShapes[idx], nil
	}
	info, err := l.Describe(in)
	if err != nil {
		return nil, err
	}
	s.inShapes[idx] = append(s.inShapes[idx][:0], in...)
	s.outShapes[idx] = append(s.outShapes[idx][:0], info.OutShape...)
	return s.outShapes[idx], nil
}

// bufferOut returns the stage buffer for a [b, out...] result, routing the
// common ranks through the allocation-free fast paths.
func (s *QScratch) bufferOut(idx, b int, out []int) *tensor.Tensor {
	switch len(out) {
	case 1:
		return s.buffer2(idx, b, out[0])
	case 3:
		return s.buffer4(idx, b, out[0], out[1], out[2])
	}
	return s.buffer(idx, append([]int{b}, out...))
}

// grow8 grows one of the scratch's int8 workspaces to at least n codes.
func grow8(buf *[]int8, n int) []int8 {
	if cap(*buf) < n {
		*buf = make([]int8, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// growf grows a float32 workspace to at least n entries.
func growf(buf *[]float32, n int) []float32 {
	if cap(*buf) < n {
		*buf = make([]float32, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// qDense runs y = dequant(quant(x) ⊗ Wq) + b on the integer kernel with
// one dynamic activation scale per example row.
type qDense struct {
	w    *QTensor
	bias []float32
}

func (d *qDense) run(x *tensor.Tensor, s *QScratch, idx int) *tensor.Tensor {
	if x.Rank() != 2 || x.Dim(1) != d.w.Rows {
		panic(fmt.Sprintf("quant: qdense(%d→%d) got input shape %v", d.w.Rows, d.w.Cols, x.Shape()))
	}
	rows := x.Dim(0)
	codes := grow8(&s.codes, rows*d.w.Rows)
	scales := growf(&s.rowScales, rows)
	QuantizeActivationsRows(x, codes, scales)
	out := s.buffer2(idx, rows, d.w.Cols)
	if d.w.IsPacked() {
		tensor.MatMulInt4(out.Data, codes, d.w.Packed, rows, d.w.Rows, d.w.Cols, scales, d.w.Scales)
	} else {
		tensor.MatMulInt8(out.Data, codes, d.w.Data, rows, d.w.Rows, d.w.Cols, scales, d.w.Scales)
	}
	for i := 0; i < rows; i++ {
		row := out.Data[i*d.w.Cols : (i+1)*d.w.Cols]
		for j := range row {
			row[j] += d.bias[j]
		}
	}
	return out
}

func (d *qDense) sizeBytes() int { return d.w.SizeBytes() + 4*len(d.bias) }

// qConv2D runs a convolution on the integer kernel: each example's
// activations are quantized with one dynamic scale, unrolled to int8
// columns by the tensor.Im2col that nn.Conv2D's floats go through (zero
// padding is exact in the integer domain), and multiplied against
// per-output-channel quantized kernels.
type qConv2D struct {
	inC, outC   int
	kh, kw      int
	stride, pad int
	w           []int8    // [outC, inC*kh*kw] row-major codes (nil when packed)
	wp          []byte    // packed int4 form of w (tensor.PackInt4Matrix layout)
	wCount      int       // outC * inC*kh*kw, storage-form independent
	wScales     []float32 // per output channel
	bias        []float32
	scheme      Scheme
}

func (c *qConv2D) run(x *tensor.Tensor, s *QScratch, idx int) *tensor.Tensor {
	if x.Rank() != 4 || x.Dim(1) != c.inC {
		panic(fmt.Sprintf("quant: qconv2d(%d→%d) got input shape %v", c.inC, c.outC, x.Shape()))
	}
	g := tensor.Window{C: c.inC, H: x.Dim(2), W: x.Dim(3), KH: c.kh, KW: c.kw, Stride: c.stride, Pad: c.pad}
	if err := g.Check(); err != nil {
		panic(fmt.Sprintf("quant: qconv2d: %v", err))
	}
	b := x.Dim(0)
	oh, ow := g.Out()
	ex := g.C * g.H * g.W
	k := g.Taps()
	codes := grow8(&s.codes, b*ex)
	scales := growf(&s.rowScales, b)
	QuantizeActivationsRows(x, codes, scales)
	cols := grow8(&s.cols, k*oh*ow)
	colScales := growf(&s.colScales, oh*ow)
	out := s.buffer4(idx, b, c.outC, oh, ow)
	for n := 0; n < b; n++ {
		tensor.Im2col(cols, codes[n*ex:(n+1)*ex], g)
		for j := range colScales {
			colScales[j] = scales[n]
		}
		dst := out.Data[n*c.outC*oh*ow : (n+1)*c.outC*oh*ow]
		if c.wp != nil {
			tensor.MatMulInt4LHS(dst, c.wp, cols, c.outC, k, oh*ow, c.wScales, colScales)
		} else {
			tensor.MatMulInt8(dst, c.w, cols, c.outC, k, oh*ow, c.wScales, colScales)
		}
		tensor.AddBias(dst, c.bias)
	}
	return out
}

func (c *qConv2D) sizeBytes() int {
	wBits := c.wCount * c.scheme.Bits()
	return (wBits+7)/8 + 4*len(c.wScales) + 4*len(c.bias)
}

// inferInto matches the stateless fast-path contract nn layers export; the
// interface is structural, so quant can drive it without nn exporting it.
type inferInto interface {
	InferInto(dst, x *tensor.Tensor)
}

// qFloat wraps a layer that stays in float32 (activation, pooling,
// normalization with frozen statistics, ...). It prefers the layer's
// stateless InferInto fast path into a scratch buffer; shape-only layers
// are handled inline. NewQModel's kind allowlist guarantees every layer
// that reaches here takes one of those stateless paths (the Forward
// fallback is only reachable on a shape mismatch, which panics in the
// layer anyway) — a new nn layer kind must be added to that switch before
// a QModel will carry it, which is where its dispatch gets decided.
type qFloat struct {
	layer nn.Layer
	bytes int
}

func (f *qFloat) run(x *tensor.Tensor, s *QScratch, idx int) *tensor.Tensor {
	b := x.Dim(0)
	switch f.layer.(type) {
	case *nn.Flatten:
		per := 1
		for _, d := range x.Shape()[1:] {
			per *= d
		}
		return s.flatView(idx, x.Data, b, per)
	case *nn.Dropout:
		return x // inverted dropout is the identity at inference time
	}
	if fast, ok := f.layer.(inferInto); ok {
		if out, err := s.stageOutShape(idx, f.layer, x); err == nil {
			dst := s.bufferOut(idx, b, out)
			fast.InferInto(dst, x)
			return dst
		}
	}
	return f.layer.Forward(x, false)
}

func (f *qFloat) sizeBytes() int { return f.bytes }

// quantizeRowChannels quantizes a [rows, cols] matrix with one scale per
// ROW (the per-output-channel layout convolution kernels need), returning
// row-major codes and the row scales. It reuses QuantizeMatrix's
// per-column logic on the transpose so every scheme shares one rounding
// implementation.
func quantizeRowChannels(w *tensor.Tensor, scheme Scheme) ([]int8, []float32, error) {
	rows, cols := w.Dim(0), w.Dim(1)
	wt := tensor.New(cols, rows)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			wt.Set2(j, i, w.At2(i, j))
		}
	}
	qt, err := QuantizeMatrix(wt, scheme)
	if err != nil {
		return nil, nil, err
	}
	codes := make([]int8, rows*cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			codes[i*cols+j] = qt.Data[j*rows+i]
		}
	}
	return codes, qt.Scales, nil
}

// floatStageBytes accounts a float stage's parameters at full precision.
func floatStageBytes(l nn.Layer) int {
	total := 0
	for _, p := range l.Params() {
		total += 4 * p.Value.Size()
	}
	return total
}

// NewQModel lowers net into an integer-kernel executable under the scheme:
// dense and convolutional layers quantize their weights (per output
// channel) and run on tensor.MatMulInt8; activations, pooling, batch norm
// (frozen statistics), flatten and dropout execute in float32 through
// their stateless fast paths. Layer kinds outside that set have no kernel
// in the integer runtime and are rejected — the caller falls back to
// fake-quantized float execution, exactly what a device without the
// operator would do.
func NewQModel(net *nn.Network, scheme Scheme) (*QModel, error) {
	if scheme == Float32 {
		return nil, fmt.Errorf("quant: NewQModel requires an integer scheme, got %v", scheme)
	}
	// Lowering happens once per version: refuse shapes that do not chain, or
	// a window that does not fit its map, here and not on the first query.
	if _, err := net.Summary(); err != nil {
		return nil, fmt.Errorf("quant: %w", err)
	}
	m := &QModel{InputShape: append([]int(nil), net.InputShape...), Scheme: scheme}
	for i, l := range net.Layers() {
		switch v := l.(type) {
		case *nn.Dense:
			qw, err := QuantizeMatrix(v.W.Value, scheme)
			if err != nil {
				return nil, err
			}
			if scheme == Int4 {
				// Int4 weights serve from the packed two-per-byte form, the
				// layout tensor.MatMulInt4 consumes natively.
				if err := qw.PackInt4(); err != nil {
					return nil, err
				}
			}
			bias := append([]float32(nil), v.B.Value.Data...)
			m.stages = append(m.stages, &qDense{w: qw, bias: bias})
		case *nn.Conv2D:
			codes, scales, err := quantizeRowChannels(v.W.Value, scheme)
			if err != nil {
				return nil, err
			}
			st := &qConv2D{
				inC: v.InC, outC: v.OutC, kh: v.KH, kw: v.KW,
				stride: v.Stride, pad: v.Pad,
				w: codes, wCount: len(codes), wScales: scales,
				bias:   append([]float32(nil), v.B.Value.Data...),
				scheme: scheme,
			}
			if scheme == Int4 {
				k := v.InC * v.KH * v.KW
				wp, err := tensor.PackInt4Matrix(codes, v.OutC, k)
				if err != nil {
					return nil, err
				}
				st.wp, st.w = wp, nil
			}
			m.stages = append(m.stages, st)
		case *nn.ReLU, *nn.Tanh, *nn.Sigmoid, *nn.Softmax, *nn.Flatten,
			*nn.MaxPool2D, *nn.BatchNorm1D, *nn.Dropout:
			m.stages = append(m.stages, &qFloat{layer: l, bytes: floatStageBytes(l)})
		default:
			return nil, fmt.Errorf("quant: layer %d (%s) has no integer-runtime kernel", i, l.Kind())
		}
	}
	return m, nil
}

// ForwardBatch runs quantized inference on a [batch, example shape...]
// tensor through reusable scratch buffers: the steady state allocates
// nothing. Every example is quantized with its own dynamic activation
// scale, so the output is bit-identical to running the rows one at a time
// — the property the serving layer's batched admission path relies on. A
// nil scratch allocates fresh buffers; an empty batch returns an empty
// output without touching any kernel. The result aliases scratch storage
// and is valid until the next call with the same QScratch.
func (m *QModel) ForwardBatch(x *tensor.Tensor, s *QScratch) *tensor.Tensor {
	if s == nil {
		s = NewQScratch()
	}
	for i, st := range m.stages {
		x = st.run(x, s, i)
	}
	return x
}

// Predict runs quantized inference on a batch with one-shot buffers.
func (m *QModel) Predict(x *tensor.Tensor) *tensor.Tensor {
	return m.ForwardBatch(x, nil)
}

// SizeBytes returns the total weight footprint of the quantized model.
func (m *QModel) SizeBytes() int {
	total := 0
	for _, s := range m.stages {
		total += s.sizeBytes()
	}
	return total
}

// QuantizeActivations quantizes a float32 batch to int8 with one dynamic
// per-tensor symmetric scale, returning the codes and the scale. Rounding
// is half away from zero; NaN quantizes to 0, and a tensor with no finite
// nonzero magnitude (or an infinite one) falls back to scale 1.
func QuantizeActivations(x *tensor.Tensor) ([]int8, float32) {
	out := make([]int8, x.Size())
	scale := QuantizeBlock(x.Data, out)
	return out, scale
}

// QuantizeActivationsRows quantizes each example of a [rows, ...] batch to
// int8 with its own dynamic symmetric scale — the layout the integer
// serving path uses, because it keeps every example's result independent
// of its batch-mates. codes must have x.Size() entries and scales one per
// row. Rounding and edge-case handling match QuantizeActivations.
func QuantizeActivationsRows(x *tensor.Tensor, codes []int8, scales []float32) {
	rows := x.Dim(0)
	if rows == 0 {
		return
	}
	rl := x.Size() / rows
	for r := 0; r < rows; r++ {
		scales[r] = QuantizeBlock(x.Data[r*rl:(r+1)*rl], codes[r*rl:(r+1)*rl])
	}
}

// QuantizeBlock quantizes one contiguous block with a single symmetric
// scale, writing len(data) int8 codes and returning the scale — the
// allocation-free core of QuantizeActivations, for callers that own the
// destination.
func QuantizeBlock(data []float32, codes []int8) float32 {
	var absMax float32
	for _, v := range data {
		if v < 0 {
			v = -v
		}
		if v > absMax { // NaN compares false: ignored for the scale
			absMax = v
		}
	}
	scale := absMax / 127
	// Zero blocks and non-finite magnitudes fall back to scale 1: codes
	// stay deterministic (zeros, or saturated ±127 for infinities).
	if !(scale > 0) || scale > maxFinite {
		scale = 1
	}
	inv := 1 / scale
	for i, v := range data {
		c := v * inv
		switch {
		case c != c: // NaN activations quantize to zero
			codes[i] = 0
		case c > 127:
			codes[i] = 127
		case c < -127:
			codes[i] = -127
		case c >= 0: // round half away from zero; -0 lands here and yields 0
			codes[i] = int8(c + 0.5)
		default:
			codes[i] = int8(c - 0.5)
		}
	}
	return scale
}

// maxFinite is math.MaxFloat32; spelled out to keep the hot file's import
// set minimal.
const maxFinite = 0x1.fffffep127

// MatMulInt8 computes dst[i,j] = sx*scales[j] * Σ_k a[i,k]·b[k,j] with
// int32 accumulation — the "hardware supports int8 dot product" fast path
// of experiment E3, now delegating to the blocked kernel in tensor (one
// shared activation scale sx broadcast over the rows).
func MatMulInt8(dst []float32, a, b []int8, m, k, n int, sx float32, scales []float32) {
	rs := make([]float32, m)
	for i := range rs {
		rs[i] = sx
	}
	tensor.MatMulInt8(dst, a, b, m, k, n, rs, scales)
}

// MatMulInt8Emulated computes the same result as MatMulInt8 but the way a
// platform *without* low-bit hardware support has to: every weight is
// dequantized to float32 inside the inner loop before the multiply. It
// exists so E3 can show that low bit width alone buys nothing without
// hardware support (§III-A of the paper).
func MatMulInt8Emulated(dst []float32, a, b []int8, m, k, n int, sx float32, scales []float32) {
	tensor.Parallel(m, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			arow := a[i*k : (i+1)*k]
			drow := dst[i*n : (i+1)*n]
			for j := range drow {
				drow[j] = 0
			}
			for p, av := range arow {
				af := float32(av) * sx
				brow := b[p*n : (p+1)*n]
				for j, bv := range brow {
					drow[j] += af * (float32(bv) * scales[j])
				}
			}
		}
	})
}
