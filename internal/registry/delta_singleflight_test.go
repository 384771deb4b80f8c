package registry

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"tinymlops/internal/nn"
)

// deltaFixture registers two same-topology versions and returns their IDs.
func deltaFixture(t *testing.T) (*Registry, string, string) {
	t.Helper()
	r := New()
	base := newTestNet(41)
	v1, err := r.RegisterModel("sf", base, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	next := base.Clone()
	head := next.Layers()[2].(*nn.Dense)
	for i := range head.W.Value.Data {
		head.W.Value.Data[i] += 0.01
	}
	v2, err := r.RegisterModel("sf", next, 0.91)
	if err != nil {
		t.Fatal(err)
	}
	return r, v1.ID, v2.ID
}

// TestDeltaSingleFlightUnderContention: N goroutines racing for the same
// delta must compute it exactly once and all observe identical bytes.
// Run with -race; the waiters' channel handoff is the code under test.
func TestDeltaSingleFlightUnderContention(t *testing.T) {
	r, from, to := deltaFixture(t)
	const goroutines = 64
	results := make([][]byte, goroutines)
	errs := make([]error, goroutines)
	var start, done sync.WaitGroup
	start.Add(1)
	done.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer done.Done()
			start.Wait() // maximize the stampede
			results[g], errs[g] = r.Delta(from, to)
		}(g)
	}
	start.Done()
	done.Wait()
	for g := 0; g < goroutines; g++ {
		if errs[g] != nil {
			t.Fatalf("goroutine %d: %v", g, errs[g])
		}
		if !bytes.Equal(results[g], results[0]) {
			t.Fatalf("goroutine %d saw different delta bytes", g)
		}
	}
	if n := r.deltaComputes.Load(); n != 1 {
		t.Fatalf("computed %d times under contention, want exactly 1", n)
	}
	// A later request is a pure cache hit.
	if _, err := r.Delta(from, to); err != nil {
		t.Fatal(err)
	}
	if n := r.deltaComputes.Load(); n != 1 {
		t.Fatalf("cache hit recomputed: %d", n)
	}
	// The reverse direction is its own cache entry.
	if _, err := r.Delta(to, from); err != nil {
		t.Fatal(err)
	}
	if n := r.deltaComputes.Load(); n != 2 {
		t.Fatalf("reverse pair computes = %d, want 2", n)
	}
}

// TestDeltaSingleFlightManyPairs races distinct pairs concurrently: each
// pair computes once, and failures (unknown versions) are cached too.
func TestDeltaSingleFlightManyPairs(t *testing.T) {
	r := New()
	const versions = 6
	ids, _ := registerLine(t, r, versions)
	type pair struct{ from, to string }
	var pairs []pair
	for i := 0; i < versions; i++ {
		for j := 0; j < versions; j++ {
			if i != j {
				pairs = append(pairs, pair{ids[i], ids[j]})
			}
		}
	}
	var wg sync.WaitGroup
	for rep := 0; rep < 8; rep++ {
		for _, pr := range pairs {
			wg.Add(1)
			go func(pr pair) {
				defer wg.Done()
				if _, err := r.Delta(pr.from, pr.to); err != nil {
					panic(fmt.Sprintf("delta %s->%s: %v", pr.from, pr.to, err))
				}
			}(pr)
		}
	}
	wg.Wait()
	if n := r.deltaComputes.Load(); n != int64(len(pairs)) {
		t.Fatalf("computed %d deltas for %d distinct pairs", n, len(pairs))
	}
	// Deterministic failures are cached like successes.
	if _, err := r.Delta(ids[0], "no-such-version"); err == nil {
		t.Fatal("unknown version produced a delta")
	}
	before := r.deltaComputes.Load()
	if _, err := r.Delta(ids[0], "no-such-version"); err == nil {
		t.Fatal("unknown version produced a delta on retry")
	}
	if r.deltaComputes.Load() != before {
		t.Fatal("failed delta recomputed instead of served from cache")
	}
}
