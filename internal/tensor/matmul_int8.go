package tensor

import "fmt"

// MatMulInt8 computes dst[i,j] = rowScales[i] * colScales[j] * Σ_p a[i,p]·b[p,j]
// for int8 operands a ([m,k] row-major) and b ([k,n] row-major) with exact
// int32 accumulation. It widens b to InterleaveK's layout on every call and
// runs MatMulInterleaved, so the result is bit-identical to a naive scalar
// triple loop. No model serves from it: a QModel widens its dense weights
// once, at build, and its convolutions' im2col columns into a scratch
// workspace.
func MatMulInt8(dst []float32, a, b []int8, m, k, n int, rowScales, colScales []float32) {
	MatMulInterleaved(dst, a, InterleaveK(b, k, n), m, k, n, rowScales, colScales)
}

// scaleRow dequantizes one output row segment: drow[j] = acc[j]·rs·cs[j].
func scaleRow(drow []float32, acc []int32, rs float32, cs []float32) {
	for j, v := range acc[:len(drow)] {
		drow[j] = float32(v) * rs * cs[j]
	}
}

// InterleaveK widens a [rows, cols] row-major int8 code matrix to the
// layout MatMulInterleaved reads, in a new slice: InterleaveKInto's.
func InterleaveK(codes []int8, rows, cols int) []int16 {
	w := make([]int16, (rows+1)&^1*cols)
	InterleaveKInto(w, codes, rows, cols)
	return w
}

// InterleaveKInto widens a [rows, cols] row-major int8 code matrix into
// dst, the layout MatMulInterleaved reads: int16, interleaved along rows.
// Row pair P is 2·cols values, for each column j the pair (w[2P,j],
// w[2P+1,j]); an odd last row pairs with 0. dst must hold (rows+1)&^1·cols
// entries, and every one of them is written, the zero partners included,
// so a reused workspace needs no clearing. A model widens its dense
// weights once, when it is built, and a convolution each example's im2col
// columns, so the kernel never widens an operand itself.
func InterleaveKInto(dst []int16, codes []int8, rows, cols int) {
	for p := 0; p < rows; p += 2 {
		r0 := codes[p*cols:][:cols]
		pair := dst[p*cols:][:2*cols]
		if p+1 == rows {
			for j, c := range r0 {
				pair[2*j], pair[2*j+1] = int16(c), 0
			}
			break
		}
		r1 := codes[(p+1)*cols:][:cols]
		for j, c := range r0 {
			pair[2*j], pair[2*j+1] = int16(c), int16(r1[j])
		}
	}
}

// MatMulInterleaved computes dst[i,j] = rowScales[i] * colScales[j] *
// Σ_p a[i,p]·b[p,j] for int8 codes a ([m,k] row-major) and w, a [k,n] code
// matrix widened by InterleaveK — quant.QModel's one integer kernel, int8
// and int4 alike: a dense layer's activations times its weights, widened
// at build, and a convolution's per-output-channel weights times one
// example's im2col columns, widened per example. One multiply of a code
// pair (a[i,2P], a[i,2P+1]) by row pair P's column j gives a[i,2P]·b[2P,j]
// + a[i,2P+1]·b[2P+1,j], which is one lane of SSE2's PMADDWD: four
// columns, eight MACs per instruction on amd64.
//
// Codes are int8, so a pair's sum is at most 2·128·128 = 2^15 in magnitude
// and the multiply cannot saturate (PMADDWD saturates only when both halves
// are −32768·−32768). The int32 accumulator stays exact while k < 2^17,
// and integer addition is associative, so the result is bit-identical to
// the naive triple loop.
//
// A negative dimension or an operand too short for its shape panics here,
// before any work: the assembly fold reads w unchecked.
func MatMulInterleaved(dst []float32, a []int8, w []int16, m, k, n int, rowScales, colScales []float32) {
	if m < 0 || k < 0 || n < 0 || !fits(len(dst), m, n) || !fits(len(a), m, k) ||
		!fits(len(w), (k+1)&^1, n) || len(rowScales) < m || len(colScales) < n {
		panic(fmt.Sprintf("tensor: MatMulInterleaved [%d,%d]×[%d,%d] from %d codes and %d weights with %d and %d scales into %d",
			m, k, k, n, len(a), len(w), len(rowScales), len(colScales), len(dst)))
	}
	interleavedRows(dst, a, w, m, k, n, rowScales, colScales)
}

// nzCap is how many entries a nonzero list holds — activations in
// matmulRows, activation pairs in interleavedRows — a longer row being
// walked in chunks. A list lives on the caller's stack, so the kernels
// never allocate; Go zeroes it on every call, which is why it is small.
const nzCap = 64

// interleavedRows computes the m rows of MatMulInterleaved. Each row
// chunk first lists its activation pairs that are not both zero, each
// packed as a[i,2P]'s 16 bits under a[i,2P+1]'s, with the offset of its row
// pair's tile in w, so a zero pair costs neither a multiply nor a branch.
// That pays on the hidden layers, whose codes follow a ReLU: on the served
// kws-mlp and sensor-mlp, 51–54 % of their codes are zero, against under
// 1 % on each model's first layer. The count advances only past a nonzero
// pair (v | -v has its sign bit set exactly when v != 0), and the list is
// padded to a multiple of four with zero pairs, which add nothing, so
// foldInt16 takes four entries per pass with no tail.
func interleavedRows(dst []float32, a []int8, w []int16, m, k, n int, rowScales, colScales []float32) {
	var acc [colBlock]int32
	var xs [nzCap + 3]int32
	var offs [nzCap + 3]int
	for jb := 0; jb < n; jb += colBlock {
		tile := acc[:min(colBlock, n-jb)]
		for i := 0; i < m; i++ {
			arow := a[i*k : i*k+k]
			clear(tile)
			for c := 0; c < k; c += 2 * nzCap {
				seg := arow[c:min(c+2*nzCap, k)]
				off0 := c*n + 2*jb
				off, nz := off0, 0
				for q := 1; q < len(seg); q += 2 {
					v := int32(uint16(seg[q-1])) | int32(seg[q])<<16
					xs[nz], offs[nz] = v, off
					nz += int(uint32(v|-v) >> 31)
					off += 2 * n
				}
				if len(seg)&1 == 1 { // odd k: the last activation pairs with 0
					v := int32(uint16(seg[len(seg)-1]))
					xs[nz], offs[nz] = v, off
					nz += int(uint32(v|-v) >> 31)
				}
				xs[nz], xs[nz+1], xs[nz+2] = 0, 0, 0
				offs[nz], offs[nz+1], offs[nz+2] = off0, off0, off0
				nz = (nz + 3) &^ 3
				foldInt16(tile, xs[:nz], offs[:nz], w)
			}
			scaleRow(dst[i*n+jb:i*n+jb+len(tile)], tile, rowScales[i], colScales[jb:])
		}
	}
}
