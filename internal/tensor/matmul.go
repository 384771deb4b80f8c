package tensor

import (
	"fmt"
	"math"
	"math/bits"
)

// MatMulInto computes dst = a × b for 2D tensors ([m,k] × [k,n] → [m,n]),
// reusing dst's storage: the shape-checking form of MatMulRowsInto. dst
// must have shape [m,n] and must not alias a or b.
func MatMulInto(dst, a, b *Tensor) {
	m, k := a.shape[0], a.shape[1]
	n := b.shape[1]
	if b.shape[0] != k || dst.shape[0] != m || dst.shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMulInto [%d,%d]×%v into %v", m, k, b.shape, dst.shape))
	}
	MatMulRowsInto(dst.Data, a.Data, b.Data, m, k, n)
}

// MatMulRowsInto computes dst = a × b for row-major slices a [m,k], b [k,n]
// and dst [m,n], overwriting dst — the float matmul for a caller that holds
// bare slices, with no tensor header to build. dst must not alias a or b.
//
// The kernel iterates the B matrix row-wise (ikj ordering), which keeps
// both A and B accesses sequential, and splits the rows of A across a
// bounded pool of goroutines when the problem is large enough to benefit.
// A negative dimension or an operand too short for its shape panics here,
// before any work, so every offset the kernel lists lies within b.
func MatMulRowsInto(dst, a, b []float32, m, k, n int) {
	if m < 0 || k < 0 || n < 0 || !fits(len(dst), m, n) || !fits(len(a), m, k) || !fits(len(b), k, n) {
		panic(fmt.Sprintf("tensor: MatMulRowsInto [%d,%d]×[%d,%d] from %d and %d elements into %d",
			m, k, k, n, len(a), len(b), len(dst)))
	}
	clear(dst[:m*n])
	// The poolDepth check is duplicated from parallelRows so the serial
	// path never constructs the closure below: a closure that escapes on
	// any branch is heap-allocated on every call, which would put one
	// allocation in the zero-alloc serving hot loop.
	if m*n*k < parallelThreshold || poolDepth.Load() > 0 {
		matmulRows(dst, a, b, 0, m, k, n)
		return
	}
	parallelRows(m, func(lo, hi int) {
		matmulRows(dst, a, b, lo, hi, k, n)
	})
}

// fits reports whether an r×c operand fits in l elements, for r, c ≥ 0;
// the product is taken in 128 bits, so a huge shape cannot wrap to fit.
func fits(l, r, c int) bool {
	hi, lo := bits.Mul64(uint64(r), uint64(c))
	return hi == 0 && lo <= uint64(l)
}

// colBlock is the column-tile width of the ikj kernel. Wide outputs are
// processed in tiles so one dst row stays resident in L1 across the whole
// k-loop; tiling only the j dimension leaves every element's accumulation
// order over p untouched, keeping blocked results bit-identical to the
// straight kernel.
const colBlock = 512

// matmulRows computes rows [lo,hi) of dst = A×B with the column-blocked
// ikj kernel. dst rows must be pre-zeroed. Each row chunk of up to nzCap
// activations first lists its nonzero ones with their B-row offsets, as
// interleavedRows does for the integer kernel, and foldFloat32 folds the
// listed rows into the dst tile. A ±0 activation is skipped, as the scalar loop
// skips it; the list is built without a data-dependent branch (the count
// advances when a bit below the sign is set) and holds no pad entry, since
// a pad's 0·w is NaN for an infinite or NaN weight.
func matmulRows(dst, a, b []float32, lo, hi, k, n int) {
	var xs [nzCap]float32
	var offs [nzCap]int
	for jb := 0; jb < n; jb += colBlock {
		jhi := min(jb+colBlock, n)
		for i := lo; i < hi; i++ {
			drow := dst[i*n+jb : i*n+jhi]
			for c := 0; c < k; c += nzCap {
				nz := 0
				for p, av := range a[i*k+c : i*k+min(c+nzCap, k)] {
					xs[nz], offs[nz] = av, (c+p)*n+jb
					u := math.Float32bits(av) << 1
					nz += int((u | -u) >> 31)
				}
				foldFloat32(drow, xs[:nz], offs[:nz], b)
			}
		}
	}
}

// SumRowsInto writes the sum of each column of the 2D tensor t into dst
// (Cols elements), rows added in order.
func (t *Tensor) SumRowsInto(dst *Tensor) {
	t.must2D("SumRowsInto")
	r, c := t.shape[0], t.shape[1]
	if dst.Size() != c {
		panic(fmt.Sprintf("tensor: SumRowsInto got %d slots for %d columns", dst.Size(), c))
	}
	dst.Zero()
	for i := 0; i < r; i++ {
		row := t.Data[i*c : (i+1)*c]
		for j, v := range row {
			dst.Data[j] += v
		}
	}
}
