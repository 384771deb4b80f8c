package quant

import (
	"fmt"

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
// Geometry is a build-time fact: every stage keeps the per-example input
// and output shape of the network's plan, inferred when the network was
// made (a convolution its window, too). A forward pass checks the
// batch against the first stage it enters and nothing after that: no stage
// re-derives or re-checks a shape per call.
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

// qStage is one executable stage of a QModel. run takes a batch in the
// stage's input shape and returns it in the output shape, in the scratch
// buffer keyed by idx: valid until the next call with the same scratch.
type qStage interface {
	run(x *tensor.Tensor, s *QScratch, idx int) *tensor.Tensor
	sizeBytes() int
	shapes() *geom
}

// geom is a stage's per-example geometry, fixed when the model is lowered:
// the shapes the network's plan holds there.
type geom struct{ in, out []int }

func (g *geom) shapes() *geom { return g }

// QScratch is what a forward pass needs per goroutine, and nothing a
// QModel knows at build: one output buffer per stage, sized batch × the
// stage's output shape, plus the int8 code, im2col, widened-column and
// scale workspaces the integer stages share. One QScratch serves one
// goroutine and one model; buffers are allocated on the first batch and
// again only when the batch dimension changes, so a steady-state serving
// loop allocates nothing at all — asserted with testing.AllocsPerRun in the
// alloc tests.
type QScratch struct {
	bufs      []*tensor.Tensor // stage i's [batch, out...] output
	codes     []int8
	cols      []int8
	wide      []int16 // cols widened by tensor.InterleaveKInto
	rowScales []float32
	colScales []float32
}

// NewQScratch returns an empty scratch space for integer-kernel inference.
func NewQScratch() *QScratch { return &QScratch{} }

// buffer returns stage idx's output for a batch of b examples shaped out.
// A stage that only re-views its input passes the input's data as alias,
// and its buffer is the header rebound to it.
func (s *QScratch) buffer(idx, b int, out []int, alias []float32) *tensor.Tensor {
	for len(s.bufs) <= idx {
		s.bufs = append(s.bufs, nil)
	}
	t := s.bufs[idx]
	if t == nil || t.Dim(0) != b {
		dims := append(make([]int, 0, 1+len(out)), b)
		dims = append(dims, out...)
		if alias != nil {
			t = tensor.FromSlice(alias, dims...)
		} else {
			t = tensor.New(dims...)
		}
		s.bufs[idx] = t
	} else if alias != nil {
		t.Data = alias
	}
	return t
}

// grow resizes one of the scratch's workspaces to n entries, reallocating
// only past its capacity.
func grow[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// qDense runs y = dequant(quant(x) ⊗ Wq) + b on the integer kernel with
// one dynamic activation scale per example row.
type qDense struct {
	geom
	w    *QTensor
	bias []float32
}

func (d *qDense) run(x *tensor.Tensor, s *QScratch, idx int) *tensor.Tensor {
	rows := x.Dim(0)
	codes := grow(&s.codes, rows*d.w.Rows)
	scales := grow(&s.rowScales, rows)
	QuantizeActivationsRows(x, codes, scales)
	return d.product(codes, scales, rows, s, idx)
}

// product is the stage past quantization: rows of int8 codes, one scale
// each, against the quantized weights, plus the bias. A split resumes here
// with the codes that crossed the wire.
func (d *qDense) product(codes []int8, scales []float32, rows int, s *QScratch, idx int) *tensor.Tensor {
	out := s.buffer(idx, rows, d.out, nil)
	tensor.MatMulInterleaved(out.Data, codes, d.w.Wide, rows, d.w.Rows, d.w.Cols, scales, d.w.Scales)
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
// padding is exact in the integer domain), widened by
// tensor.InterleaveKInto, and multiplied by tensor.MatMulInterleaved with
// the per-output-channel quantized kernels on the left, so the product
// lands in NCHW order. The kernels stay int8 codes at every scheme: one
// byte of RAM per code, an int4 one included.
type qConv2D struct {
	geom
	win     tensor.Window // over the input map; admission checked that it fits
	outC    int
	ex      int       // inC·h·w: one example's stride through the batch
	taps    int       // inC·kh·kw: the product's inner dimension
	spots   int       // oh·ow: output positions per channel
	w       []int8    // [outC, taps] row-major codes
	wScales []float32 // per output channel
	bias    []float32
	scheme  Scheme
}

func (c *qConv2D) run(x *tensor.Tensor, s *QScratch, idx int) *tensor.Tensor {
	b, ex := x.Dim(0), c.ex
	codes := grow(&s.codes, b*ex)
	scales := grow(&s.rowScales, b)
	QuantizeActivationsRows(x, codes, scales)
	cols := grow(&s.cols, c.taps*c.spots)
	wide := grow(&s.wide, (c.taps+1)&^1*c.spots)
	colScales := grow(&s.colScales, c.spots)
	out := s.buffer(idx, b, c.out, nil)
	for n := 0; n < b; n++ {
		tensor.Im2col(cols, codes[n*ex:(n+1)*ex], c.win)
		tensor.InterleaveKInto(wide, cols, c.taps, c.spots)
		for j := range colScales {
			colScales[j] = scales[n]
		}
		dst := out.Data[n*c.outC*c.spots : (n+1)*c.outC*c.spots]
		tensor.MatMulInterleaved(dst, c.w, wide, c.outC, c.taps, c.spots, c.wScales, colScales)
		tensor.AddBias(dst, c.bias)
	}
	return out
}

func (c *qConv2D) sizeBytes() int {
	wBits := c.outC * c.taps * c.scheme.Bits()
	return (wBits+7)/8 + 4*len(c.wScales) + 4*len(c.bias)
}

// inferInto matches the stateless fast-path contract nn layers export; the
// interface is structural, so quant can drive it without nn exporting it.
type inferInto interface {
	InferInto(dst, x *tensor.Tensor)
}

// qFloat is a layer that stays in float32 (activation, pooling,
// normalization with frozen statistics, ...), run through its stateless
// InferInto fast path into the stage's buffer. A layer that only re-views
// its input at inference time (flatten; dropout, the identity) has no
// kernel: its output is the input's data under the output shape.
type qFloat struct {
	geom
	layer nn.Layer
	infer inferInto // nil: re-view the input
}

func (f *qFloat) run(x *tensor.Tensor, s *QScratch, idx int) *tensor.Tensor {
	if f.infer == nil {
		return s.buffer(idx, x.Dim(0), f.out, x.Data)
	}
	dst := s.buffer(idx, x.Dim(0), f.out, nil)
	f.infer.InferInto(dst, x)
	return dst
}

// sizeBytes accounts a float stage's parameters at full precision.
func (f *qFloat) sizeBytes() int {
	total := 0
	for _, p := range f.layer.Params() {
		total += 4 * p.Value.Size()
	}
	return total
}

// quantizeWeight quantizes a dense or convolutional layer's weight w once,
// per output channel, for NewQModel to run and FakeQuantizeNetwork to
// dequantize. q is per column over [inputs, outputs]: a dense weight as it
// is, a conv kernel [outC, taps] transposed. w is nil for other layers.
func quantizeWeight(l nn.Layer, scheme Scheme) (w *tensor.Tensor, q *QTensor, transposed bool, err error) {
	switch v := l.(type) {
	case *nn.Dense:
		q, err = QuantizeMatrix(v.W.Value, scheme)
		return v.W.Value, q, false, err
	case *nn.Conv2D:
		w = v.W.Value
		q, err = QuantizeMatrix(tensor.FromSlice(transpose(w.Data, w.Dim(0), w.Dim(1)), w.Dim(1), w.Dim(0)), scheme)
		return w, q, true, err
	}
	return nil, nil, false, nil
}

// transpose returns the [cols, rows] transpose of a row-major [rows, cols]
// matrix.
func transpose[T any](m []T, rows, cols int) []T {
	t := make([]T, len(m))
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			t[j*rows+i] = m[i*cols+j]
		}
	}
	return t
}

// NewQModel lowers net into an integer-kernel executable under the scheme:
// dense and convolutional layers quantize their weights (per output
// channel) and run on the one integer kernel, tensor.MatMulInterleaved
// (dense weights widened here, convolution columns per example);
// activations, pooling, batch norm (frozen statistics), flatten and
// dropout execute in float32 through their stateless fast paths. That set
// is every kind nn.Assemble admits, so every network lowers; a kind outside
// it is an error, never a float fallback.
func NewQModel(net *nn.Network, scheme Scheme) (*QModel, error) {
	if scheme == Float32 {
		return nil, fmt.Errorf("quant: NewQModel requires an integer scheme, got %v", scheme)
	}
	// The network's plan is the geometry every stage runs with: shapes that
	// chain and windows that fit their maps, checked when it was made.
	costs, _ := net.Summary()
	m := &QModel{InputShape: append([]int(nil), net.InputShape...), Scheme: scheme}
	in := m.InputShape
	for i, l := range net.Layers() {
		g := geom{in: in, out: costs[i].Info.OutShape}
		in = g.out
		_, qw, _, err := quantizeWeight(l, scheme)
		if err != nil {
			return nil, err
		}
		switch v := l.(type) {
		case *nn.Dense:
			// Weights serve from the one form their kernel reads, made here
			// once for every scheme: int16 interleaved along k for
			// tensor.MatMulInterleaved.
			qw.Wide, qw.Data = tensor.InterleaveK(qw.Data, qw.Rows, qw.Cols), nil
			bias := append([]float32(nil), v.B.Value.Data...)
			m.stages = append(m.stages, &qDense{geom: g, w: qw, bias: bias})
		case *nn.Conv2D:
			win := tensor.Window{C: v.InC, H: g.in[1], W: g.in[2], KH: v.KH, KW: v.KW, Stride: v.Stride, Pad: v.Pad}
			m.stages = append(m.stages, &qConv2D{
				geom: g, win: win, outC: v.OutC,
				ex: v.InC * g.in[1] * g.in[2], taps: win.Taps(), spots: g.out[1] * g.out[2],
				w: transpose(qw.Data, qw.Rows, qw.Cols), wScales: qw.Scales,
				bias:   append([]float32(nil), v.B.Value.Data...),
				scheme: scheme,
			})
		case *nn.Flatten, *nn.Dropout:
			m.stages = append(m.stages, &qFloat{geom: g, layer: l})
		case *nn.ReLU, *nn.Tanh, *nn.Sigmoid, *nn.Softmax, *nn.MaxPool2D, *nn.BatchNorm1D:
			// A kind admitted here must implement InferInto: it is the only
			// way a float stage runs, and a QModel has no stateful fallback.
			// A new nn layer kind joins this switch before a QModel carries
			// it, which is where its dispatch gets decided.
			fast, ok := l.(inferInto)
			if !ok {
				return nil, fmt.Errorf("quant: layer %d (%s) has no stateless InferInto path", i, l.Kind())
			}
			m.stages = append(m.stages, &qFloat{geom: g, layer: l, infer: fast})
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
// and is valid until the next call with the same QScratch. A batch that is
// not [n, InputShape...] panics before any stage runs.
func (m *QModel) ForwardBatch(x *tensor.Tensor, s *QScratch) *tensor.Tensor {
	return m.ForwardRange(x, s, 0, len(m.stages))
}

// Predict runs quantized inference on a batch with one-shot buffers.
func (m *QModel) Predict(x *tensor.Tensor) *tensor.Tensor {
	return m.ForwardBatch(x, nil)
}

// SizeBytes returns the total weight footprint of the quantized model at
// the scheme's nominal width (QTensor.SizeBytes), not its resident size.
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
