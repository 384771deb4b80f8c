//go:build !amd64 || race

package tensor

// foldFloat32 adds each listed activation times its B row into drow, four
// list entries per pass: an element is loaded and stored once per four
// MACs instead of once per MAC, and the last one to three entries take a
// single-row pass. Every element still adds its products in list order,
// rounding to float32 after each add, so the result is bit-identical to
// the scalar ikj loop. The float32 conversions round each product too,
// which keeps an architecture that fuses a multiply into an add (arm64's
// FMADDS) from skipping that rounding.
//
// This is the portable fold. amd64 runs matmul_amd64.s instead, except
// under the race detector, which cannot see an assembly function's memory
// accesses; the two give the same bits.
func foldFloat32(drow, xs []float32, offs []int, b []float32) {
	w := len(drow)
	offs = offs[:len(xs)]
	q := 0
	for ; q+3 < len(xs); q += 4 {
		a0, a1, a2, a3 := xs[q], xs[q+1], xs[q+2], xs[q+3]
		b0 := b[offs[q]:][:w]
		b1 := b[offs[q+1]:][:w]
		b2 := b[offs[q+2]:][:w]
		b3 := b[offs[q+3]:][:w]
		for j, bv := range b0 {
			d := drow[j]
			d += float32(a0 * bv)
			d += float32(a1 * b1[j])
			d += float32(a2 * b2[j])
			d += float32(a3 * b3[j])
			drow[j] = d
		}
	}
	for ; q < len(xs); q++ {
		av := xs[q]
		for j, bv := range b[offs[q]:][:w] {
			drow[j] += float32(av * bv)
		}
	}
}

// foldInt16 adds each listed activation pair times its row pair of w into
// tile, four list entries per pass; interleavedRows pads the list to a
// multiple of four. Entry q's pair is xs[q]'s low and high 16 bits, and
// column j of its row pair is w[offs[q]+2j] and w[offs[q]+2j+1], so the
// column gains lo·w[2P,j] + hi·w[2P+1,j], one lane of matmul_int16_amd64.s's
// PMADDWD. Integer addition is exact, so any order gives the same sums.
func foldInt16(tile, xs []int32, offs []int, w []int16) {
	n2 := 2 * len(tile)
	offs = offs[:len(xs)]
	for q := 0; q+3 < len(xs); q += 4 {
		l0, h0 := int32(int16(xs[q])), xs[q]>>16
		l1, h1 := int32(int16(xs[q+1])), xs[q+1]>>16
		l2, h2 := int32(int16(xs[q+2])), xs[q+2]>>16
		l3, h3 := int32(int16(xs[q+3])), xs[q+3]>>16
		w0 := w[offs[q]:][:n2]
		w1 := w[offs[q+1]:][:n2]
		w2 := w[offs[q+2]:][:n2]
		w3 := w[offs[q+3]:][:n2]
		for j := range tile {
			tile[j] += l0*int32(w0[2*j]) + h0*int32(w0[2*j+1]) +
				l1*int32(w1[2*j]) + h1*int32(w1[2*j+1]) +
				l2*int32(w2[2*j]) + h2*int32(w2[2*j+1]) +
				l3*int32(w3[2*j]) + h3*int32(w3[2*j+1])
		}
	}
}
