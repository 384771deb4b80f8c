package exec

import (
	"fmt"

	"tinymlops/internal/engine"
	"tinymlops/internal/nn"
	"tinymlops/internal/quant"
	"tinymlops/internal/tensor"
)

// quantExec runs a network on the integer kernels of the variant's scheme,
// on every device: hardware without the bit width runs the same kernels,
// and only the modelled charge differs. A cut is legal only where the
// resuming stage is a dense integer stage: the boundary crosses as the int8
// codes plus the dynamic per-example scale that stage would have computed
// locally (the QAB1 codec), so the resumed answer is bit-identical to the
// whole pass.
type quantExec struct {
	graph
	qm *quant.QModel
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
func (q *quantExec) SnapCut(cut int) int  { return q.qm.SnapCut(cut) }

func (q *quantExec) scratch(ar *engine.Arena) *quant.QScratch {
	return ar.Slot(q, func() any { return quant.NewQScratch() }).(*quant.QScratch)
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
	w := &q.boundary(ar).codeBuf
	w.size(rows, cols)
	quant.QuantizeActivationsRows(act, w.codes, w.scales)
	buf := ar.Buffer()
	if err := encodeQAB(buf, w.codes, w.scales, rows, cols); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// DecodeBoundary parses a one-example QAB1 payload into the arena and
// checks it against the width of the dense stage cut resumes at.
func (q *quantExec) DecodeBoundary(payload []byte, cut int, ar *engine.Arena) (*Boundary, error) {
	width, err := q.qm.BoundaryWidth(cut)
	if err != nil {
		return nil, fmt.Errorf("exec: cut %d is not a quantized boundary: %w", cut, err)
	}
	if !isQAB(payload) {
		return nil, fmt.Errorf("exec: this model is integer and requires quantized boundary payloads")
	}
	b := q.boundary(ar)
	rows, cols, err := b.decodeQAB(payload)
	if err != nil {
		return nil, err
	}
	if rows != 1 || cols != width {
		return nil, fmt.Errorf("exec: quantized boundary is %dx%d, want 1x%d at cut %d", rows, cols, width, cut)
	}
	return b, nil
}

// Resume runs the integer suffix on the boundary's own codes.
func (q *quantExec) Resume(b *Boundary, cut int, ar *engine.Arena) (*tensor.Tensor, error) {
	out, err := q.qm.ForwardFromCodes(b.codes, b.scales, 1, cut, q.scratch(ar))
	if err != nil {
		return nil, fmt.Errorf("exec: quant suffix: %w", err)
	}
	return out, nil
}
