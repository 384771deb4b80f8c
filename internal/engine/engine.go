package engine

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Config sizes an Engine.
type Config struct {
	// Workers bounds concurrent task execution; values ≤ 0 mean
	// runtime.GOMAXPROCS(0).
	Workers int
}

// Engine is a bounded worker pool for indexed task sets. The zero-cost
// contract is determinism: an Engine never exposes scheduling order to the
// tasks it runs, so any computation that derives its randomness from the
// task's identity (see SeedForID) produces identical results at any worker
// count.
type Engine struct {
	workers int
}

// New returns an engine with cfg.Workers workers.
func New(cfg Config) *Engine {
	w := cfg.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	return &Engine{workers: w}
}

// Default returns an engine sized to the machine (GOMAXPROCS workers).
func Default() *Engine { return New(Config{}) }

// ForEach runs fn(i) for every i in [0,n) across the worker pool and
// returns the non-nil errors joined in index order. Workers claim small
// contiguous index blocks from an atomic cursor, so execution order is
// unspecified; tasks must take all order-sensitive inputs (RNG streams,
// result slots) from the index alone. A panicking task is recovered into
// its error slot rather than tearing down the whole round — in a fleet of
// thousands one corrupt device must not abort the simulation.
func (e *Engine) ForEach(n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	workers := e.workers
	if workers > n {
		workers = n
	}
	errs := make([]error, n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			errs[i] = call(fn, i)
		}
		return errors.Join(errs...)
	}
	// Grain trades scheduling overhead against load balance: 8 blocks per
	// worker keeps stragglers short without hammering the cursor.
	grain := n / (workers * 8)
	if grain < 1 {
		grain = 1
	}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				hi := int(cursor.Add(int64(grain)))
				lo := hi - grain
				if lo >= n {
					return
				}
				if hi > n {
					hi = n
				}
				for i := lo; i < hi; i++ {
					errs[i] = call(fn, i)
				}
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// call invokes fn(i), converting a panic into an error.
func call(fn func(i int) error, i int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("engine: task %d panicked: %v", i, r)
		}
	}()
	return fn(i)
}

// Map runs fn for every index in [0,n) on the pool and returns the results
// in index order regardless of scheduling. Failed tasks leave their zero
// value in the slice and contribute to the joined error.
func Map[T any](e *Engine, n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := e.ForEach(n, func(i int) error {
		v, ferr := fn(i)
		if ferr != nil {
			return ferr
		}
		out[i] = v
		return nil
	})
	return out, err
}

// mix64 is the splitmix64 finalizer: a bijective avalanche so related
// inputs (consecutive rounds, consecutive indices) give unrelated streams.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}
