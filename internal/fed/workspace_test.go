package fed

import (
	"fmt"
	"math"
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
// in batches of 8): in the steady state a client update costs 2.1
// allocations flat (the codec payload, encoded and decoded), 4.9 masked
// hierarchical and 3.4 plain hierarchical on one worker (3.3 measured, in a
// race-detector build too). History: 228 before the workspace, where every
// client cloned the global through the wire format; 149 plain hierarchical
// while its uplink was sized by encoding an nn delta patch; one more flat
// while each unit allocated its eligible list and its reference sum; 73.1 /
// 75.9 / 90.0 while nn.Train allocated its batches, every layer's outputs
// and gradients and a backward product per step, and ResetFrom its layer
// specs; 18.4 plain (19.0 under the race detector) while nn.DeltaSize
// built the topology signature and the state-tensor list for every client.
// A coordinator builds one workspace per worker however many clients and
// rounds it trains. A worker that first trains in a measured round builds its workspace there, at most
// about 150 allocations, so each extra worker may add that much.
func TestRoundAllocationPins(t *testing.T) {
	const clients, rounds, workspaceAllocs = 96, 3, 150
	fixture := func() (*nn.Network, []*Client) {
		rng := tensor.NewRNG(95)
		ds := dataset.Blobs(rng, 16*clients, 16, 4, 4)
		global := nn.NewNetwork([]int{16}, nn.NewDense(16, 32, rng), nn.NewReLU(), nn.NewDense(32, 4, rng))
		return global, MakeClients(ds, dataset.PartitionIID(rng, ds, clients), "ap")
	}
	for _, workers := range []int{1, 4} {
		cfg := Config{LocalEpochs: 1, LocalBatch: 8, LR: 0.1, Seed: 93, Engine: engine.New(engine.Config{Workers: workers})}
		for _, topo := range []struct {
			name string
			cfg  HierConfig
			pin  float64
		}{
			{"flat", HierConfig{Config: cfg}, 2.1},
			{"masked hierarchical", HierConfig{Config: cfg, Aggregators: 8, SecureAgg: true}, 4.9},
			{"plain hierarchical", HierConfig{Config: cfg, Aggregators: 8}, 3.4},
		} {
			global, cs := fixture()
			co, err := New(global, cs, nil, nil, topo.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := co.RunRound(); err != nil { // warm-up: the workspaces are built here
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for r := 0; r < rounds; r++ {
				if _, err := co.RunRound(); err != nil {
					t.Fatal(err)
				}
			}
			runtime.ReadMemStats(&after)
			got := float64(after.Mallocs-before.Mallocs) / (rounds * clients)
			ceiling := topo.pin + float64((workers-1)*workspaceAllocs)/(rounds*clients)
			t.Logf("workers=%d: %s %.1f allocations per client update", workers, topo.name, got)
			if got > ceiling {
				t.Errorf("workers=%d: %s round allocates %.1f per client update, pinned at <= %.1f", workers, topo.name, got, ceiling)
			}
			if got := workspaces(co, workers+1); got > workers {
				t.Errorf("workers=%d: %s coordinator built %d workspaces", workers, topo.name, got)
			}
		}
	}
}

// TestFleetRoundPins pins one round over 1600 two-example clients on a 4→3
// linear model, coordinator construction included, flat and over 100 masked
// cohorts: allocations per client on one worker, mean of three runs after a
// warm-up (26.1 and 28.1 while nn.Train allocated per step, 2.1 and 4.1
// since it runs from a plan), and the cloud uplink to the byte — a 60-byte
// dense payload per client flat, one varint partial per cohort hierarchical.
func TestFleetRoundPins(t *testing.T) {
	const clients, runs = 1600, 3
	fixture := func() (*nn.Network, []*Client, *dataset.Dataset) {
		rng := tensor.NewRNG(90)
		pool, test := dataset.Blobs(rng, 3600, 4, 3, 4).Split(0.9, rng)
		cs := make([]*Client, clients)
		for i := range cs {
			lo := (2 * i) % (pool.Len() - 2)
			cs[i] = &Client{ID: fmt.Sprintf("bench-%05d", i), Data: pool.Subset([]int{lo, lo + 1})}
		}
		return nn.NewNetwork([]int{4}, nn.NewDense(4, 3, rng)), cs, test
	}
	cfg := Config{LocalEpochs: 1, LocalBatch: 4, LR: 0.1, Seed: 92, Engine: engine.New(engine.Config{Workers: 1})}
	for _, topo := range []struct {
		name   string
		cfg    HierConfig
		allocs float64
		uplink int64
	}{
		{"flat", HierConfig{Config: cfg}, 2.1, 96_000},
		{"100 masked cohorts", HierConfig{Config: cfg, Aggregators: 100, SecureAgg: true}, 4.1, 5_266},
	} {
		var mallocs uint64
		for r := 0; r <= runs; r++ {
			global, cs, test := fixture()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			co, err := New(global, cs, test.X, test.Y, topo.cfg)
			if err != nil {
				t.Fatal(err)
			}
			s, err := co.RunRound()
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			if s.CloudUplinkBytes != topo.uplink {
				t.Errorf("%s: cloud uplink %d B, pinned at %d", topo.name, s.CloudUplinkBytes, topo.uplink)
			}
			if r > 0 { // run 0 warms the package's first-use state
				mallocs += after.Mallocs - before.Mallocs
			}
		}
		got := float64(mallocs) / (runs * clients)
		t.Logf("%s: %.2f allocations per client", topo.name, got)
		if got > topo.allocs {
			t.Errorf("%s: a round allocates %.2f per client, pinned at <= %.1f", topo.name, got, topo.allocs)
		}
	}
}

// TestDeltaSizeMatchesEncodeDelta holds nn.DeltaSize, which sizes the plain
// edge uplink, to the length of the patch it stands for, on the golden's two
// models — the conv one carries batch-norm running statistics and a dropout
// stream, state an update leaves alone — and to no allocation. An element
// is changed when its bits are: an update that rounds away is no change, +0
// onto −0 is one.
func TestDeltaSizeMatchesEncodeDelta(t *testing.T) {
	negZero := float32(math.Copysign(0, -1))
	nan := float32(math.NaN())
	cases := map[string]func(g []float32, rng *tensor.RNG) []float32{
		"zero": func(g []float32, _ *tensor.RNG) []float32 { return make([]float32, len(g)) },
		"rounds away": func(g []float32, _ *tensor.RNG) []float32 {
			d := make([]float32, len(g))
			for k, v := range g {
				d[k] = v * 0x1p-30
			}
			return d
		},
		"signed zeros": func(g []float32, _ *tensor.RNG) []float32 {
			g[0], g[len(g)-1] = negZero, negZero
			return make([]float32, len(g))
		},
		"NaN": func(g []float32, _ *tensor.RNG) []float32 {
			d := make([]float32, len(g))
			d[1] = nan
			g[2], d[2] = nan, 1
			g[3] = nan
			return d
		},
		"dense": func(g []float32, rng *tensor.RNG) []float32 {
			d := make([]float32, len(g))
			for k := range d {
				d[k] = rng.NormFloat32()
			}
			return d
		},
		"single": func(g []float32, _ *tensor.RNG) []float32 {
			d := make([]float32, len(g))
			d[len(d)/2] = 0.5
			return d
		},
	}
	// Sparse and dense tensors both, either side of the 8·changed < 4·n rule.
	for _, share := range []float32{0.1, 0.3, 0.45, 0.5, 0.55, 0.7} {
		cases[fmt.Sprintf("share %.2f", share)] = func(g []float32, rng *tensor.RNG) []float32 {
			d := make([]float32, len(g))
			for k := range d {
				if rng.Float32() < share {
					d[k] = rng.NormFloat32()
				}
			}
			return d
		}
	}
	for _, model := range []string{"mlp", "conv"} {
		for name, update := range cases {
			global, _, _ := goldenProblem(model)
			g := global.FlatParams()
			d := update(g, tensor.NewRNG(97))
			if err := global.SetFlatParams(g); err != nil {
				t.Fatal(err)
			}
			next := global.Clone()
			sum := make([]float32, len(g))
			for k := range g {
				sum[k] = g[k] + d[k]
			}
			if err := next.SetFlatParams(sum); err != nil {
				t.Fatal(err)
			}
			patch, err := nn.EncodeDelta(global, next)
			if err != nil {
				t.Fatal(err)
			}
			// A Clone keeps what its topology fixes in a patch.
			for _, from := range []*nn.Network{global, global.Clone()} {
				if got, err := nn.DeltaSize(from, d); err != nil || got != len(patch) {
					t.Errorf("%s/%s: DeltaSize %d, %v; EncodeDelta %d bytes", model, name, got, err, len(patch))
				}
			}
			if allocs := testing.AllocsPerRun(10, func() { nn.DeltaSize(global, d) }); allocs != 0 {
				t.Errorf("%s/%s: DeltaSize allocates %v", model, name, allocs)
			}
		}
	}
	global, _, _ := goldenProblem("mlp")
	if _, err := nn.DeltaSize(global, make([]float32, 3)); err == nil {
		t.Fatal("sized an update of the wrong dimension")
	}
}

// workspaces counts the arenas in co's pool that hold a training workspace,
// taking up to limit of them: Acquire hands out every free arena before it
// builds a new one, so a count under limit is all of them.
func workspaces(co *Coordinator, limit int) int {
	n := 0
	for range limit {
		warm := true
		co.arenas.Acquire().Slot(co, func() any { warm = false; return nil })
		if warm {
			n++
		}
	}
	return n
}
