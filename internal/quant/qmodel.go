package quant

import (
	"fmt"

	"tinymlops/internal/nn"
	"tinymlops/internal/tensor"
)

// QModel is a quantized executable derived from an nn.Network: dense and
// convolutional layers run on the blocked integer kernel with dynamically
// quantized activations (one symmetric int8 scale per example, like a
// microcontroller runtime quantizing each incoming sample); every other
// layer runs in float32 on nn's own kernel for its kind, as a one-layer
// view of the network through nn's compiled batch program. A QModel never
// writes to itself during inference, so one model may serve any number of
// goroutines as long as each brings its own QScratch.
//
// Geometry is a build-time fact: every stage keeps the per-example input
// and output shape of the network's plan, inferred when the network was
// made (a convolution its window, too). A forward pass checks the batch
// against the first stage it enters; past that, only a float stage's
// program checks its input, as every nn pass does on entry. No stage
// re-derives a shape per call.
//
// Numerical contract: every example is quantized and executed
// independently, so ForwardBatch over a batch, ForwardBatch row by row and
// a naive scalar int8 reference all produce bit-identical outputs. Against
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
// stage's input shape and returns it in the output shape, in scratch
// storage keyed by idx: valid until the next call with the same scratch.
type qStage interface {
	run(x *tensor.Tensor, s *QScratch, idx int) *tensor.Tensor
	shapes() *geom
}

// geom is a stage's per-example geometry, fixed when the model is lowered:
// the shapes the network's plan holds there.
type geom struct{ in, out []int }

func (g *geom) shapes() *geom { return g }

// QScratch is what a forward pass needs per goroutine, and nothing a
// QModel knows at build: an integer stage's output buffer, sized batch ×
// the stage's output shape, a float stage's compiled nn program, which
// holds its buffers, plus the int8 code, im2col, widened-column and scale
// workspaces the integer stages share. One QScratch serves one goroutine
// and one model; buffers are allocated on the first batch and again only
// when the batch dimension changes, so a steady-state serving loop
// allocates nothing at all — asserted with testing.AllocsPerRun in the
// alloc tests.
type QScratch struct {
	bufs      []*tensor.Tensor // integer stage i's [batch, out...] output
	progs     []nn.Scratch     // float stage i's program
	codes     []int8
	cols      []int8
	wide      []int16 // cols widened by tensor.InterleaveKInto
	rowScales []float32
	colScales []float32
}

// NewQScratch returns an empty scratch space for integer-kernel inference.
func NewQScratch() *QScratch { return &QScratch{} }

// slot returns entry idx of a per-stage list, growing the list to hold it.
func slot[T any](list *[]T, idx int) *T {
	for len(*list) <= idx {
		*list = append(*list, *new(T))
	}
	return &(*list)[idx]
}

// buffer returns integer stage idx's output for a batch of b examples
// shaped out.
func (s *QScratch) buffer(idx, b int, out []int) *tensor.Tensor {
	t := slot(&s.bufs, idx)
	if *t == nil || (*t).Dim(0) != b {
		*t = tensor.New(append([]int{b}, out...)...)
	}
	return *t
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
	out := s.buffer(idx, rows, d.out)
	tensor.MatMulInterleaved(out.Data, codes, d.w.Wide, rows, d.w.Rows, d.w.Cols, scales, d.w.Scales)
	for i := 0; i < rows; i++ {
		row := out.Data[i*d.w.Cols : (i+1)*d.w.Cols]
		for j := range row {
			row[j] += d.bias[j]
		}
	}
	return out
}

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
}

func (c *qConv2D) run(x *tensor.Tensor, s *QScratch, idx int) *tensor.Tensor {
	b, ex := x.Dim(0), c.ex
	codes := grow(&s.codes, b*ex)
	scales := grow(&s.rowScales, b)
	QuantizeActivationsRows(x, codes, scales)
	cols := grow(&s.cols, c.taps*c.spots)
	wide := grow(&s.wide, (c.taps+1)&^1*c.spots)
	colScales := grow(&s.colScales, c.spots)
	out := s.buffer(idx, b, c.out)
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

// qFloat is a layer that stays in float32 (activation, pooling,
// normalization with frozen statistics, flatten, dropout): a one-layer view
// of the network, run through nn's compiled batch program in the stage's
// slot of the scratch. The program re-views where the layer only reshapes
// (flatten) or passes its input through (dropout).
type qFloat struct {
	geom
	net *nn.Network // the network's Subnet(i, i+1)
}

func (f *qFloat) run(x *tensor.Tensor, s *QScratch, idx int) *tensor.Tensor {
	return f.net.ForwardBatch(x, slot(&s.progs, idx))
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
// (dense weights widened here, convolution columns per example). Every
// other layer, whatever its kind, executes in float32 as a one-layer
// Subnet of net through nn's compiled program, so a kind nn runs lowers
// with no change here.
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
				bias: append([]float32(nil), v.B.Value.Data...),
			})
		default:
			sub, err := net.Subnet(i, i+1)
			if err != nil {
				return nil, err
			}
			m.stages = append(m.stages, &qFloat{geom: g, net: sub})
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
