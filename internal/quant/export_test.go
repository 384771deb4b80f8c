package quant

// ConvCodes returns the codes, [outC, taps] row-major, and the per-output-
// channel scales that stage i of m multiplies, for the external tests; the
// stage must be a convolution.
func (m *QModel) ConvCodes(i int) ([]int8, []float32) {
	c := m.stages[i].(*qConv2D)
	return c.w, c.wScales
}
