package tensor

import (
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
