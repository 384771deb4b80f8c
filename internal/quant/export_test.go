package quant

import "tinymlops/internal/tensor"

// ConvCodes returns the codes, [outC, taps] row-major, and the per-output-
// channel scales that stage i of m multiplies, for the external tests; the
// stage must be a convolution.
func (m *QModel) ConvCodes(i int) ([]int8, []float32) {
	c := m.stages[i].(*qConv2D)
	if c.wp == nil {
		return c.w, c.wScales
	}
	rb := tensor.Int4PackedLen(c.taps)
	codes := make([]int8, 0, c.outC*c.taps)
	for o := 0; o < c.outC; o++ {
		row, err := tensor.UnpackInt4(c.wp[o*rb:(o+1)*rb], c.taps)
		if err != nil {
			panic(err)
		}
		codes = append(codes, row...)
	}
	return codes, c.wScales
}
