package quant

import (
	"fmt"
	"slices"

	"tinymlops/internal/tensor"
)

// Split execution. A QModel can be cut at a dense integer stage and run as
// a device prefix plus a cloud suffix: the device executes stages [0, cut)
// with ForwardRange, quantizes the boundary activations exactly the way
// stage cut itself would (QuantizeActivationsRows), and ships only the int8
// codes plus one scale per example; the cloud resumes with ForwardFromCodes,
// feeding the codes straight into stage cut's integer kernel. Because the
// codes on the wire are bit-identical to the codes the device would have
// produced locally, the split output is bit-identical to ForwardBatch — the
// property that retires the "integer deployments cannot split" restriction.

// cutStage is the integer cut rule: the remote side resumes from int8
// activation codes, so a cut is a boundary when it is in range and its
// stage is a dense integer stage, which consumes exactly the codes the
// device would have produced. It returns that stage, or nil.
func (m *QModel) cutStage(cut int) *qDense {
	if cut < 0 || cut >= len(m.stages) {
		return nil
	}
	d, _ := m.stages[cut].(*qDense)
	return d
}

// canCutAt reports whether cut is a valid quantized offload boundary. A cut
// at the stage count (one stage per network layer) is the all-local
// degenerate split and is always valid.
func (m *QModel) canCutAt(cut int) bool {
	return cut == len(m.stages) || m.cutStage(cut) != nil
}

// SnapCut returns the largest valid boundary cut ≤ planned, falling back to
// the all-local split when no earlier stage can serve as a boundary. The
// offload planner plans cuts on the float layer graph; this maps its choice
// onto the integer runtime's stricter boundary rule.
func (m *QModel) SnapCut(planned int) int {
	if planned > len(m.stages) {
		planned = len(m.stages)
	}
	for c := planned; c >= 0; c-- {
		if m.canCutAt(c) {
			return c
		}
	}
	return len(m.stages)
}

// BoundaryWidth returns the per-example activation count crossing a valid
// boundary cut — the shape contract the wire codec validates against.
func (m *QModel) BoundaryWidth(cut int) (int, error) {
	d := m.cutStage(cut)
	if d == nil {
		return 0, fmt.Errorf("quant: cut %d of %d stages is not at a dense integer stage", cut, len(m.stages))
	}
	return d.w.Rows, nil
}

// ForwardRange runs stages [lo, hi) on x with the scratch's buffers — the
// device-prefix half of a split, and over every stage ForwardBatch. The
// result aliases scratch storage, like ForwardBatch. This is where a pass
// enters, so it is the one place a batch is checked: x must be
// [n, shape entering stage lo...], and a stage range or a batch that is not
// panics here, before any kernel runs.
func (m *QModel) ForwardRange(x *tensor.Tensor, s *QScratch, lo, hi int) *tensor.Tensor {
	var want []int
	ok := 0 <= lo && lo <= hi && hi <= len(m.stages)
	if ok && lo < hi {
		want = m.stages[lo].shapes().in
		ok = slices.Equal(x.Shape()[1:], want)
	}
	if !ok {
		panic(fmt.Sprintf("quant: input shape %v does not fit stages [%d, %d) of %d, entered with [n %v]",
			x.Shape(), lo, hi, len(m.stages), want))
	}
	if s == nil {
		s = NewQScratch()
	}
	for i := lo; i < hi; i++ {
		x = m.stages[i].run(x, s, i)
	}
	return x
}

// ForwardFromCodes resumes split execution at a valid boundary cut: codes
// holds rows×BoundaryWidth(cut) int8 activation codes (row-major) and scales
// one dynamic activation scale per example row, exactly as produced by
// QuantizeActivationsRows on the device's boundary activations. Stage cut's
// integer kernel consumes the codes directly — no requantization — and the
// remaining stages run as usual, so the result is bit-identical to the
// device having run ForwardBatch locally.
func (m *QModel) ForwardFromCodes(codes []int8, scales []float32, rows, cut int, s *QScratch) (*tensor.Tensor, error) {
	d := m.cutStage(cut)
	if d == nil {
		return nil, fmt.Errorf("quant: cannot resume at cut %d of %d stages: not a dense integer stage", cut, len(m.stages))
	}
	if rows < 0 || len(codes) != rows*d.w.Rows {
		return nil, fmt.Errorf("quant: got %d boundary codes, want %d rows × width %d", len(codes), rows, d.w.Rows)
	}
	if len(scales) != rows {
		return nil, fmt.Errorf("quant: got %d boundary scales for %d rows", len(scales), rows)
	}
	if s == nil {
		s = NewQScratch()
	}
	return m.ForwardRange(d.product(codes, scales, rows, s, cut), s, cut+1, len(m.stages)), nil
}
