package engine

import (
	"bytes"
	"sync"
)

// Arena is a per-worker scratch store for serving hot paths: a bag of
// reusable objects keyed by owner, so steady-state inference borrows its
// scratch (nn.Scratch, quant.QScratch, codec buffers) from the worker it
// runs on instead of allocating per call or pinning one scratch per
// deployment. An Arena is NOT safe for concurrent use — it models one
// worker's private slab; use an ArenaPool to hand arenas to goroutines.
type Arena struct {
	slots map[any]any
	buf   bytes.Buffer
}

// NewArena returns an empty arena.
func NewArena() *Arena {
	return &Arena{slots: make(map[any]any)}
}

// Slot returns the arena's object for key, creating it with init on first
// use. Keys are typically owner pointers (a runnable, a session), so the
// lookup itself never allocates and each owner sees a stable per-arena
// object across calls.
func (a *Arena) Slot(key any, init func() any) any {
	if v, ok := a.slots[key]; ok {
		return v
	}
	v := init()
	a.slots[key] = v
	return v
}

// Buffer returns the arena's one reusable byte buffer, reset to empty.
func (a *Arena) Buffer() *bytes.Buffer {
	a.buf.Reset()
	return &a.buf
}

// ArenaPool hands out arenas to serving goroutines: Acquire pops a free
// arena (or creates one — the pool grows to the peak concurrency and then
// stops allocating), Release returns it. The steady-state cost of an
// Acquire/Release pair is a mutex and two slice ops, so per-query
// borrowing is allocation-free.
type ArenaPool struct {
	mu      sync.Mutex
	free    []*Arena
	created int
}

// NewArenaPool returns an empty pool.
func NewArenaPool() *ArenaPool { return &ArenaPool{} }

// Acquire returns an arena for exclusive use until Release.
func (p *ArenaPool) Acquire() *Arena {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n := len(p.free); n > 0 {
		a := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		return a
	}
	p.created++
	return NewArena()
}

// Release returns an arena to the pool. The arena's contents are kept —
// that is the point: the next borrower reuses its warmed-up scratch.
func (p *ArenaPool) Release(a *Arena) {
	if a == nil {
		return
	}
	p.mu.Lock()
	p.free = append(p.free, a)
	p.mu.Unlock()
}

// Created reports how many arenas the pool has ever built — in a bounded
// serving loop this converges to the worker count, which the alloc tests
// assert indirectly by demanding zero steady-state allocations.
func (p *ArenaPool) Created() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.created
}
