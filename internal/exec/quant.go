package exec

import (
	"fmt"

	"tinymlops/internal/engine"
	"tinymlops/internal/nn"
	"tinymlops/internal/quant"
	"tinymlops/internal/tensor"
)

// quantExec runs a network on the integer kernels at the variant's native
// bit width. A cut is legal only where the resuming stage is a dense
// integer stage: the boundary crosses as the int8 codes plus the dynamic
// per-example scale that stage would have computed locally (the QAB1
// codec), so the resumed answer is bit-identical to the whole pass.
type quantExec struct {
	graph
	qm *quant.QModel
}

// codeBuf is the arena-resident workspace for boundary codes and scales.
type codeBuf struct {
	codes  []int8
	scales []float32
}

// Quant lowers net onto the integer kernels of scheme and returns the
// executor over them.
func Quant(net *nn.Network, scheme quant.Scheme) (Executor, error) {
	q := new(quantExec)
	if err := q.init(net); err != nil {
		return nil, err
	}
	var err error
	if q.qm, err = quant.NewQModel(net, scheme); err != nil {
		return nil, fmt.Errorf("exec: %w", err)
	}
	return q, nil
}

func (q *quantExec) Scheme() quant.Scheme { return q.qm.Scheme }
func (q *quantExec) Bits() int            { return q.qm.Scheme.Bits() }
func (q *quantExec) SnapCut(cut int) int  { return q.qm.SnapCut(cut) }

func (q *quantExec) scratch(ar *engine.Arena) *quant.QScratch {
	return ar.Slot(q, func() any { return quant.NewQScratch() }).(*quant.QScratch)
}

func (q *quantExec) workspace(ar *engine.Arena, rows, cols int) *codeBuf {
	w := ar.Slot(q.qm, func() any { return new(codeBuf) }).(*codeBuf)
	if cap(w.codes) < rows*cols {
		w.codes = make([]int8, rows*cols)
	}
	if cap(w.scales) < rows {
		w.scales = make([]float32, rows)
	}
	w.codes, w.scales = w.codes[:rows*cols], w.scales[:rows]
	return w
}

func (q *quantExec) Run(x *tensor.Tensor, lo, hi int, ar *engine.Arena) (*tensor.Tensor, error) {
	x, err := q.enter(x, lo, hi)
	if err != nil || lo == hi {
		return x, err
	}
	return q.qm.ForwardRange(x, q.scratch(ar), lo, hi), nil
}

// EncodeBoundary quantizes each example with its own dynamic scale —
// producing the identical codes stage cut would compute locally — and
// packs them as a QAB1 payload.
func (q *quantExec) EncodeBoundary(act *tensor.Tensor, cut int, ar *engine.Arena) ([]byte, error) {
	rows := act.Dim(0)
	cols := act.Size() / rows
	w := q.workspace(ar, rows, cols)
	quant.QuantizeActivationsRows(act, w.codes, w.scales)
	buf := ar.Buffer(0)
	if err := encodeQAB(buf, w.codes, w.scales, rows, cols); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func (q *quantExec) DecodeBoundary(payload []byte, cut int) (Boundary, error) {
	width, err := q.qm.BoundaryWidth(cut)
	if err != nil {
		return Boundary{}, fmt.Errorf("exec: cut %d is not a quantized boundary: %w", cut, err)
	}
	if !isQAB(payload) {
		return Boundary{}, fmt.Errorf("exec: this model is integer-native and requires quantized boundary payloads")
	}
	codes, scales, rows, cols, err := decodeQAB(payload)
	if err != nil {
		return Boundary{}, err
	}
	if rows != 1 || cols != width {
		return Boundary{}, fmt.Errorf("exec: quantized boundary is %dx%d, want 1x%d at cut %d", rows, cols, width, cut)
	}
	return Boundary{codes: codes, scale: scales[0]}, nil
}

func (q *quantExec) Resume(bs []Boundary, cut int, ar *engine.Arena) (*tensor.Tensor, error) {
	width, err := q.qm.BoundaryWidth(cut)
	if err != nil {
		return nil, fmt.Errorf("exec: %w", err)
	}
	w := q.workspace(ar, len(bs), width)
	for i := range bs {
		copy(w.codes[i*width:(i+1)*width], bs[i].codes)
		w.scales[i] = bs[i].scale
	}
	out, err := q.qm.ForwardFromCodes(w.codes, w.scales, len(bs), cut, q.scratch(ar))
	if err != nil {
		return nil, fmt.Errorf("exec: quant suffix: %w", err)
	}
	return out, nil
}
