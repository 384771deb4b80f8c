package tensor

// MatMulInt8 computes dst[i,j] = rowScales[i] * colScales[j] * Σ_p a[i,p]·b[p,j]
// for int8 operands a ([m,k] row-major) and b ([k,n] row-major) with exact
// int32 accumulation — quant.QModel's int8 convolution kernel, weights on
// the left (dense layers serve from MatMulInt8Pairs). rowScales has length
// m (one dequantization scale per output row, e.g. a dynamically quantized
// activation row) and colScales has length n (one per output column, e.g.
// a per-output-channel weight scale).
//
// The kernel mirrors the float matmul's layout choices: ikj ordering keeps
// both operands sequential, the j dimension is processed in column tiles
// so one accumulator row stays resident in L1 across the whole k-loop, and
// rows fan out across the bounded worker pool for large problems. Because
// the accumulation is integer (and therefore exact and order-independent),
// the blocked, parallel result is bit-identical to a naive scalar triple
// loop at any worker count.
//
// The accumulator is int32, like the DSP/NPU MAC units this models: the
// caller must keep k·127² inside int32 range (k < ~2^17), which every
// TinyML-scale layer does.
func MatMulInt8(dst []float32, a, b []int8, m, k, n int, rowScales, colScales []float32) {
	// Serial path first, without constructing the parallel closure: an
	// escaping closure is heap-allocated on every call, which would cost
	// the zero-alloc serving hot loop one allocation per matmul.
	if m*n*k < parallelThreshold || poolDepth.Load() > 0 {
		matmulInt8Rows(dst, a, b, 0, m, k, n, rowScales, colScales)
		return
	}
	Parallel(m, func(lo, hi int) {
		matmulInt8Rows(dst, a, b, lo, hi, k, n, rowScales, colScales)
	})
}

// matmulInt8Rows computes rows [lo,hi) of the int8 matmul.
func matmulInt8Rows(dst []float32, a, b []int8, lo, hi, k, n int, rowScales, colScales []float32) {
	// The accumulator tile lives on the worker's stack (colBlock int32s
	// = 2KB), so the serving hot loop stays allocation-free.
	var accArr [colBlock]int32
	for jb := 0; jb < n; jb += colBlock {
		tile := accArr[:min(colBlock, n-jb)]
		for i := lo; i < hi; i++ {
			clear(tile)
			foldInt8Row(tile, a[i*k:(i+1)*k], b, n, jb)
			scaleRow(dst[i*n+jb:i*n+jb+len(tile)], tile, rowScales[i], colScales[jb:])
		}
	}
}

// foldInt8Row adds arow · b[:, jb:jb+len(tile)] into tile, b being the
// [len(arow), n] int8 right operand. The k-loop is unrolled four-wide:
// each pass over the tile folds in four B rows, so the tile's
// read-modify-write traffic — the dominant cost of a scalar ikj kernel —
// is paid once per four MACs instead of once per MAC. Int32 addition is
// exact and commutative, so the reassociated sum is bit-identical to the
// naive scalar order.
func foldInt8Row(tile []int32, arow, b []int8, n, jb int) {
	w := len(tile)
	p := 0
	for ; p+3 < len(arow); p += 4 {
		a0, a1 := int32(arow[p]), int32(arow[p+1])
		a2, a3 := int32(arow[p+2]), int32(arow[p+3])
		if a0|a1|a2|a3 == 0 {
			continue
		}
		b0 := b[p*n+jb:][:w]
		b1 := b[(p+1)*n+jb:][:w]
		b2 := b[(p+2)*n+jb:][:w]
		b3 := b[(p+3)*n+jb:][:w]
		for j, bv := range b0 {
			tile[j] += a0*int32(bv) + a1*int32(b1[j]) + a2*int32(b2[j]) + a3*int32(b3[j])
		}
	}
	for ; p < len(arow); p++ {
		if av := int32(arow[p]); av != 0 {
			for j, bv := range b[p*n+jb:][:w] {
				tile[j] += av * int32(bv)
			}
		}
	}
}

// scaleRow dequantizes one output row segment: drow[j] = acc[j]·rs·cs[j].
func scaleRow(drow []float32, acc []int32, rs float32, cs []float32) {
	for j, v := range acc[:len(drow)] {
		drow[j] = float32(v) * rs * cs[j]
	}
}

// PackInt8Pairs widens a [rows, cols] row-major int8 code matrix into the
// column-pair layout MatMulInt8Pairs reads: row p holds (cols+1)/2 int64s,
// pair j being lo + hi<<32 for the codes of columns 2j and 2j+1 (an odd
// final column pairs with zero). A model packs its weights once, when it
// is built, so the kernel never widens a code per query.
func PackInt8Pairs(codes []int8, rows, cols int) []int64 {
	np := (cols + 1) >> 1
	out := make([]int64, rows*np)
	for r := 0; r < rows; r++ {
		row := out[r*np : r*np+np]
		for j, c := range codes[r*cols : r*cols+cols] {
			row[j>>1] += int64(c) << (32 * (j & 1))
		}
	}
	return out
}

// MatMulInt8Pairs is MatMulInt8 with the right operand pre-widened by
// PackInt8Pairs — quant.QModel's int8 dense kernel. One 64-bit multiply of
// an activation x by a pair lo + hi<<32 is x·lo + (x·hi)<<32, two MACs,
// and pairRows' writeback splits the summed pair into both exact column
// sums. Each |x·w| ≤ 128·128 = 2^14, so each column sum stays inside int32
// — the condition for an exact split — whenever k < 2^17, MatMulInt8's own
// bound. The result is bit-identical to MatMulInt8 at any worker count.
func MatMulInt8Pairs(dst []float32, a []int8, bPairs []int64, m, k, n int, rowScales, colScales []float32) {
	pairMatMul(dst, a, bPairs, nil, m, k, n, rowScales, colScales)
}

// Pair-kernel sizes: a column tile of pairTile pairs (a 1KB accumulator)
// and an nzList of up to nzCap activations, a longer row being walked in
// chunks. Both live on the worker's stack, so the kernels never allocate;
// Go zeroes them on every call, which is why nzCap is small.
const (
	pairTile = 128
	nzCap    = 64
)

// pairMatMul runs pairRows over all m rows of a pair-kernel product whose
// right operand is either int8 pairs or packed int4 bytes (the other nil).
// The fold is picked by a branch, not passed as a function value: an
// indirect call would move the stack list and accumulator to the heap.
func pairMatMul(dst []float32, a []int8, pairs []int64, packed []byte, m, k, n int, rowScales, colScales []float32) {
	// Serial path first, without constructing the parallel closure: an
	// escaping closure is heap-allocated on every call, which would cost
	// the zero-alloc serving hot loop one allocation per matmul.
	if m*n*k < parallelThreshold || poolDepth.Load() > 0 {
		pairRows(dst, a, pairs, packed, 0, m, k, n, rowScales, colScales)
		return
	}
	Parallel(m, func(lo, hi int) {
		pairRows(dst, a, pairs, packed, lo, hi, k, n, rowScales, colScales)
	})
}

// pairRows computes rows [lo,hi) of a pair-kernel product. Each row chunk
// first lists its nonzero activations with their weight-row offsets, so a
// zero activation costs neither a multiply nor a branch in the k loop.
// That pays on the hidden layers, whose codes follow a ReLU: on the served
// kws-mlp and sensor-mlp, 51–54 % of their codes are zero, against under
// 1 % on each model's first layer. The writeback splits each accumulator
// into its two exact int32 column sums: the low sum is its low 32 bits
// (sign-extending truncation recovers it, and subtracting it cancels any
// borrow it left in the high half), the high sum what remains. An odd
// final column's pair has a zero high half, which the writeback drops.
// Every step is exact integer arithmetic, so the result is bit-identical
// to the naive triple loop, chunked or not.
func pairRows(dst []float32, a []int8, pairs []int64, packed []byte, lo, hi, k, n int, rowScales, colScales []float32) {
	np := (n + 1) >> 1
	var acc [pairTile]int64
	var l nzList
	for i := lo; i < hi; i++ {
		arow := a[i*k : i*k+k]
		rs := rowScales[i]
		for jo := 0; jo < np; jo += pairTile {
			u := acc[:min(pairTile, np-jo)]
			clear(u)
			for c := 0; c < k; c += nzCap {
				nz := l.fill(arow[c:min(c+nzCap, k)], c*np, np)
				if packed != nil {
					foldInt4(u, l.xs[:nz], l.offs[:nz], jo, packed)
				} else {
					foldInt8(u, l.xs[:nz], l.offs[:nz], jo, pairs)
				}
			}
			jb := 2 * jo
			w := min(2*len(u), n-jb)
			drow := dst[i*n+jb : i*n+jb+w]
			cs := colScales[jb : jb+w]
			for j2, v := range u[:w>>1] {
				lov := int64(int32(v))
				drow[2*j2] = float32(lov) * rs * cs[2*j2]
				drow[2*j2+1] = float32((v-lov)>>32) * rs * cs[2*j2+1]
			}
			if w&1 == 1 {
				drow[w-1] = float32(int32(u[w>>1])) * rs * cs[w-1]
			}
		}
	}
}

// nzList is one row chunk's nonzero activations, each with the offset of
// its weight row, padded to a multiple of four so a fold has no tail.
type nzList struct {
	xs   [nzCap + 3]int64
	offs [nzCap + 3]int
}

// fill lists seg's nonzero codes, seg[p]'s weight row sitting at off0 +
// p·stride, and returns the padded count. Every code is written and the
// count advances only past a nonzero one (x | -x has its sign bit set
// exactly when x != 0), so the loop has no data-dependent branch. The pad
// entries are zero activations on the chunk's first row, which add
// nothing. len(seg) must not exceed nzCap.
func (l *nzList) fill(seg []int8, off0, stride int) int {
	nz := 0
	for p, v := range seg {
		l.xs[nz] = int64(v)
		l.offs[nz] = off0 + p*stride
		nz += int(uint8(v)|-uint8(v)) >> 7
	}
	l.xs[nz], l.xs[nz+1], l.xs[nz+2] = 0, 0, 0
	l.offs[nz], l.offs[nz+1], l.offs[nz+2] = off0, off0, off0
	return (nz + 3) &^ 3
}

// foldInt8 is pairRows' inner loop for int8 pairs: it adds each listed
// activation times its weight row's pairs into the accumulator tile u,
// four list entries per pass.
func foldInt8(u, xs []int64, offs []int, jo int, b []int64) {
	offs = offs[:len(xs)]
	for q := 0; q+3 < len(xs); q += 4 {
		x0, x1, x2, x3 := xs[q], xs[q+1], xs[q+2], xs[q+3]
		b0 := b[offs[q]+jo:][:len(u)]
		b1 := b[offs[q+1]+jo:][:len(u)]
		b2 := b[offs[q+2]+jo:][:len(u)]
		b3 := b[offs[q+3]+jo:][:len(u)]
		for j, v := range b0 {
			u[j] += x0*v + x1*b1[j] + x2*b2[j] + x3*b3[j]
		}
	}
}
