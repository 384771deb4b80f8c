package quant

// ConvCodes returns the codes, [outC, taps] row-major, and the per-output-
// channel scales that stage i of m multiplies, for the external tests; the
// stage must be a convolution.
func (m *QModel) ConvCodes(i int) ([]int8, []float32) {
	c := m.stages[i].(*qConv2D)
	if c.wp == nil {
		return c.w, c.wScales
	}
	packed := QTensor{Rows: c.outC, Cols: c.taps, Packed: c.wp}
	codes := make([]int8, 0, c.outC*c.taps)
	for o := 0; o < c.outC; o++ {
		for k := 0; k < c.taps; k++ {
			codes = append(codes, packed.code(o, k))
		}
	}
	return codes, c.wScales
}
