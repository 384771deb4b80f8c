package engine

import (
	"sync"
	"testing"
)

// TestArenaSlotAndBufferReuse pins the arena contract: the same key gets
// the same object back on every call (init runs once), and buffers come
// back reset but retain their capacity.
func TestArenaSlotAndBufferReuse(t *testing.T) {
	a := NewArena()
	inits := 0
	key := new(int)
	first := a.Slot(key, func() any { inits++; return &[]float32{1, 2, 3} })
	second := a.Slot(key, func() any { inits++; return nil })
	if first != second || inits != 1 {
		t.Fatalf("slot not stable: %p vs %p, %d inits", first, second, inits)
	}
	other := a.Slot(new(int), func() any { inits++; return 7 })
	if other != 7 || inits != 2 {
		t.Fatal("distinct keys must get distinct slots")
	}

	b := a.Buffer()
	b.WriteString("payload")
	if got := a.Buffer(); got != b || got.Len() != 0 {
		t.Fatalf("buffer not reused-and-reset: %p vs %p, len %d", got, b, got.Len())
	}
}

// TestArenaPoolBoundedGrowth hammers an ArenaPool from concurrent
// borrowers and asserts it never builds more arenas than the peak
// concurrency — the property the zero-alloc serving loops depend on.
func TestArenaPoolBoundedGrowth(t *testing.T) {
	p := NewArenaPool()
	p.Release(nil) // nil release is a no-op, not a poisoned free list
	const workers = 8
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				a := p.Acquire()
				a.Buffer().WriteByte(1)
				p.Release(a)
			}
		}()
	}
	wg.Wait()
	if c := p.Created(); c < 1 || c > workers {
		t.Fatalf("pool created %d arenas for %d workers", c, workers)
	}
	// Sequential steady state reuses one arena.
	q := NewArenaPool()
	for i := 0; i < 50; i++ {
		a := q.Acquire()
		q.Release(a)
	}
	if q.Created() != 1 {
		t.Fatalf("sequential loop created %d arenas, want 1", q.Created())
	}
}
