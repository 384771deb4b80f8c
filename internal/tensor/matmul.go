package tensor

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
)

// poolDepth counts goroutines currently executing inside a bounded worker
// pool (see EnterPool). While it is non-zero the machine is already
// saturated with coarse-grained parallelism, so the matmul kernels run
// serially instead of oversubscribing the scheduler with nested fan-outs.
// Results are bit-identical either way: parallelism only partitions rows,
// never reorders accumulation.
var poolDepth atomic.Int32

// EnterPool marks the calling goroutine as a worker of a bounded pool
// until the returned func is called. The fleet engine wraps each worker
// with it so per-device work does not nest another GOMAXPROCS-wide matmul
// fan-out per layer.
//
// The counter is deliberately process-global (Go offers no cheap
// goroutine-local state): while any pool is active, unrelated goroutines'
// matmuls also degrade to serial. That collateral costs at most the
// parallel speedup for the pool's duration — never correctness, since the
// serial and parallel kernels are bit-identical — whereas oversubscription
// costs every party scheduler thrash.
func EnterPool() (exit func()) {
	poolDepth.Add(1)
	return func() { poolDepth.Add(-1) }
}

// parallelThreshold is the number of multiply-accumulate operations above
// which the matmul kernels fan out across goroutines. Below it, the
// goroutine overhead outweighs the parallel speedup on typical hardware.
const parallelThreshold = 1 << 17

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
func MatMulRowsInto(dst, a, b []float32, m, k, n int) {
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

// colBlock is the column-tile width of the ikj kernel. Wide outputs are
// processed in tiles so one dst row stays resident in L1 across the whole
// k-loop; tiling only the j dimension leaves every element's accumulation
// order over p untouched, keeping blocked results bit-identical to the
// straight kernel.
const colBlock = 512

// matmulRows computes rows [lo,hi) of dst = A×B with the column-blocked
// ikj kernel. dst rows must be pre-zeroed. Each row chunk of up to nzCap
// activations first lists its nonzero ones with their B-row offsets, as
// pairRows does for the integer kernels, and foldFloat32 folds the listed
// rows into the dst tile. A ±0 activation is skipped, as the scalar loop
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

// foldFloat32 adds each listed activation times its B row into drow, four
// list entries per pass: an element is loaded and stored once per four
// MACs instead of once per MAC, and the last one to three entries take a
// single-row pass. Every element still adds its products in list order,
// rounding to float32 after each add, so the result is bit-identical to
// the scalar ikj loop. The float32 conversions round each product too,
// which keeps an architecture that fuses a multiply into an add (arm64's
// FMADDS) from skipping that rounding.
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

// MatMulT returns a × bᵀ ([m,k] × [n,k] → [m,n]). This is the layout used by
// dense-layer backward passes and avoids materializing the transpose.
func MatMulT(a, b *Tensor) *Tensor {
	a.must2D("MatMulT")
	b.must2D("MatMulT")
	m, k := a.shape[0], a.shape[1]
	n, k2 := b.shape[0], b.shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMulT inner dimension mismatch [%d,%d]×[%d,%d]ᵀ", m, k, n, k2))
	}
	out := New(m, n)
	kernel := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			arow := a.Data[i*k : (i+1)*k]
			orow := out.Data[i*n : (i+1)*n]
			for j := 0; j < n; j++ {
				brow := b.Data[j*k : (j+1)*k]
				var s float32
				for p := range arow {
					s += arow[p] * brow[p]
				}
				orow[j] = s
			}
		}
	}
	if m*n*k < parallelThreshold {
		kernel(0, m)
		return out
	}
	parallelRows(m, kernel)
	return out
}

// TMatMul returns aᵀ × b ([k,m]ᵀ × [k,n] → [m,n]); used for weight gradients.
func TMatMul(a, b *Tensor) *Tensor {
	a.must2D("TMatMul")
	b.must2D("TMatMul")
	if a.shape[0] != b.shape[0] {
		panic(fmt.Sprintf("tensor: TMatMul inner dimension mismatch [%d,%d]ᵀ×[%d,%d]", a.shape[0], a.shape[1], b.shape[0], b.shape[1]))
	}
	out := New(a.shape[1], b.shape[1])
	TMatMulInto(out, a, b)
	return out
}

// parallelRows splits [0,m) into contiguous chunks and runs body on each
// chunk in its own goroutine, bounded by GOMAXPROCS workers. Inside a
// worker pool (EnterPool) it degrades to the serial kernel.
func parallelRows(m int, body func(lo, hi int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > m {
		workers = m
	}
	if workers <= 1 || poolDepth.Load() > 0 {
		body(0, m)
		return
	}
	var wg sync.WaitGroup
	chunk := (m + workers - 1) / workers
	for lo := 0; lo < m; lo += chunk {
		hi := lo + chunk
		if hi > m {
			hi = m
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			body(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// Parallel exposes the bounded row-parallel helper for other packages that
// need to fan work out over a dimension (e.g. fleet simulation).
func Parallel(n int, body func(lo, hi int)) { parallelRows(n, body) }

// TMatMulInto computes dst = aᵀ × b, reusing dst's storage: the training
// step's form of TMatMul. dst
// must have shape [a.Cols, b.Cols] and must not alias a or b.
func TMatMulInto(dst, a, b *Tensor) {
	k, m := a.shape[0], a.shape[1]
	n := b.shape[1]
	if dst.shape[0] != m || dst.shape[1] != n {
		panic(fmt.Sprintf("tensor: TMatMulInto dst shape %v, want [%d,%d]", dst.shape, m, n))
	}
	dst.Zero()
	// As in MatMulRowsInto, the serial path never constructs the closure.
	if m*n*k < parallelThreshold || poolDepth.Load() > 0 {
		tmatmulRows(dst.Data, a.Data, b.Data, 0, m, k, m, n)
		return
	}
	// The p-outer kernel writes disjoint row ranges per worker, so it is
	// safe to parallelize over i.
	parallelRows(m, func(lo, hi int) {
		tmatmulRows(dst.Data, a.Data, b.Data, lo, hi, k, m, n)
	})
}

// tmatmulRows computes rows [lo,hi) of dst = Aᵀ×B for A [k,m] and B [k,n]:
// dst[i,j] = Σ_p a[p,i]·b[p,j], with p outermost so both reads are
// sequential. dst rows must be pre-zeroed. The float32 conversion rounds
// each product before the add, as in foldFloat32.
func tmatmulRows(dst, a, b []float32, lo, hi, k, m, n int) {
	for p := 0; p < k; p++ {
		arow := a[p*m : (p+1)*m]
		brow := b[p*n : (p+1)*n]
		for i := lo; i < hi; i++ {
			av := arow[i]
			if av == 0 {
				continue
			}
			orow := dst[i*n : (i+1)*n]
			for j, bv := range brow {
				orow[j] += float32(av * bv)
			}
		}
	}
}

// SumRowsInto writes the sum of each column of the 2D tensor t into dst
// (Cols elements), rows added in order: SumRows without the allocation.
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
