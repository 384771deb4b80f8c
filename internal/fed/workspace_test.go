package fed

import (
	"runtime"
	"slices"
	"testing"

	"tinymlops/internal/dataset"
	"tinymlops/internal/engine"
	"tinymlops/internal/nn"
	"tinymlops/internal/tensor"
)

// maskCohortRows lifts contribs into fresh rows (nil where absent[i]) and
// masks them as a cohort.
func maskCohortRows(contribs [][]int64, absent []bool, seeds PairwiseSeeds) [][]uint64 {
	rows := make([][]uint64, len(contribs))
	for i, c := range contribs {
		if absent[i] {
			continue
		}
		rows[i] = make([]uint64, len(c))
		for k, v := range c {
			rows[i][k] = uint64(v)
		}
	}
	maskCohort(rows, seeds)
	return rows
}

// TestMaskCohortEqualsMaskFixed pins the pair-once form to the one-client
// form word for word: whoever else in the cohort dropped or arrived late —
// nobody, one peer, most peers, everyone but the client itself — each
// submitting client's cohort-masked vector is MaskFixed of its contribution
// alone, stale shares of the absent peers included.
func TestMaskCohortEqualsMaskFixed(t *testing.T) {
	rng := tensor.NewRNG(91)
	const n, dim = 9, 33
	seeds := NewPairwiseSeeds(rng, n)
	contribs := make([][]int64, n)
	for i := range contribs {
		contribs[i] = make([]int64, dim)
		for k := range contribs[i] {
			contribs[i][k] = int64(rng.Uint64()) >> 20
		}
	}
	for _, gone := range [][]int{nil, {4}, {0, 8}, {1, 2, 3, 5, 6, 7}, {0, 1, 2, 3, 5, 6, 7, 8}, {0, 1, 2, 3, 4, 5, 6, 7, 8}} {
		absent := make([]bool, n)
		for _, i := range gone {
			absent[i] = true
		}
		rows := maskCohortRows(contribs, absent, seeds)
		for i := range rows {
			if absent[i] {
				if rows[i] != nil {
					t.Fatalf("absent=%v: absent participant %d has a row", gone, i)
				}
				continue
			}
			want, err := MaskFixed(contribs[i], i, seeds)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(rows[i], want) {
				t.Fatalf("absent=%v: participant %d's cohort-masked vector differs from MaskFixed", gone, i)
			}
		}
	}
}

// TestRoundAllocationPins pins what the per-worker workspace is for, on the
// end-to-end benchmark's round shape (a 16→32→4 model, 16 examples a client
// in batches of 8): in the steady state a client update costs at most 100
// allocations under either coordinator — 77 masked hierarchical and 73 flat at the
// commit that introduced the workspace, 228 at its parent, where every
// client cloned the global through the wire format — and a coordinator
// builds one workspace per worker however many clients and rounds it trains.
func TestRoundAllocationPins(t *testing.T) {
	const clients, ceiling = 96, 100
	fixture := func() (*nn.Network, []*Client) {
		rng := tensor.NewRNG(95)
		ds := dataset.Blobs(rng, 16*clients, 16, 4, 4)
		global := nn.NewNetwork([]int{16}, nn.NewDense(16, 32, rng), nn.NewReLU(), nn.NewDense(32, 4, rng))
		return global, MakeClients(ds, dataset.PartitionIID(rng, ds, clients), "ap")
	}
	perClient := func(round func() error) float64 {
		t.Helper()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for r := 0; r < 3; r++ {
			if err := round(); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		return float64(after.Mallocs-before.Mallocs) / (3 * clients)
	}
	for _, workers := range []int{1, 4} {
		cfg := Config{LocalEpochs: 1, LocalBatch: 8, LR: 0.1, Seed: 93, Engine: engine.New(engine.Config{Workers: workers})}

		global, cs := fixture()
		flat, err := NewCoordinator(global, cs, nil, nil, cfg)
		if err != nil {
			t.Fatal(err)
		}
		round := func() error { _, err := flat.RunRound(); return err }
		if err := round(); err != nil { // warm-up: the workspaces are built here
			t.Fatal(err)
		}
		got := perClient(round)
		t.Logf("workers=%d: flat %.1f allocations per client update", workers, got)
		if got > ceiling {
			t.Errorf("workers=%d: flat round allocates %.1f per client update, pinned at <= %d", workers, got, ceiling)
		}
		if got := flat.arenas.Created(); got > workers {
			t.Errorf("workers=%d: flat coordinator built %d workspaces", workers, got)
		}

		global, cs = fixture()
		hier, err := NewHierCoordinator(global, cs, nil, nil, HierConfig{Config: cfg, Aggregators: 8, SecureAgg: true})
		if err != nil {
			t.Fatal(err)
		}
		round = func() error { _, err := hier.RunRound(); return err }
		if err := round(); err != nil {
			t.Fatal(err)
		}
		got = perClient(round)
		t.Logf("workers=%d: masked hierarchical %.1f allocations per client update", workers, got)
		if got > ceiling {
			t.Errorf("workers=%d: masked hierarchical round allocates %.1f per client update, pinned at <= %d", workers, got, ceiling)
		}
		if got := hier.arenas.Created(); got > workers {
			t.Errorf("workers=%d: hierarchical coordinator built %d workspaces", workers, got)
		}
	}
}
