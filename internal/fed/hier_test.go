package fed

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"tinymlops/internal/dataset"
	"tinymlops/internal/engine"
	"tinymlops/internal/nn"
	"tinymlops/internal/tensor"
	"tinymlops/internal/wire/wiretest"
)

// hierFixture builds a federated problem with n clients sharded IID.
func hierFixture(t testing.TB, nClients int, seed uint64) (*nn.Network, []*Client, *dataset.Dataset) {
	t.Helper()
	rng := tensor.NewRNG(seed)
	ds := dataset.Blobs(rng, 4*nClients+400, 4, 3, 4)
	train, test := ds.Split(0.9, rng)
	shards := dataset.PartitionIID(rng, train, nClients)
	clients := MakeClients(train, shards, "hc")
	global := nn.NewNetwork([]int{4}, nn.NewDense(4, 8, rng), nn.NewReLU(), nn.NewDense(8, 3, rng))
	return global, clients, test
}

// paramsDigest fingerprints a model's exact weights.
func paramsDigest(net *nn.Network) string {
	h := sha256.New()
	for _, v := range net.FlatParams() {
		fmt.Fprintf(h, "%08x.", math.Float32bits(v))
	}
	return hex.EncodeToString(h.Sum(nil)[:12])
}

// TestHierMaskedEqualsFlatUnmasked is the tentpole property: masked
// hierarchical aggregation must be bit-identical to flat unmasked FedAvg
// over the same client set, seeds and codec — across worker counts and
// across dropout/straggler patterns (surviving-peer mask reconstruction
// exact). The cross-check inside runUnit already fails the round if the
// masked cohort sum differs from the unmasked reference by one bit; this
// test additionally pins the *global models* equal between topologies.
func TestHierMaskedEqualsFlatUnmasked(t *testing.T) {
	dropPatterns := []struct {
		name   string
		faults func(round int, id string) ClientFault
	}{
		{"calm", nil},
		{"dropouts", func(round int, id string) ClientFault {
			return ClientFault{Dropout: engine.SeedForID(99, uint64(round), id)%4 == 0}
		}},
		{"weather", func(round int, id string) ClientFault {
			s := engine.SeedForID(77, uint64(round), id)
			switch s % 5 {
			case 0:
				return ClientFault{Dropout: true}
			case 1:
				return ClientFault{SlowFactor: 16} // past the deadline
			case 2:
				return ClientFault{SlowFactor: 2} // slow but in time
			}
			return ClientFault{}
		}},
	}
	for _, codec := range []Codec{NoneCodec{}, TopKCodec{Ratio: 0.25}} {
		for _, pat := range dropPatterns {
			t.Run(fmt.Sprintf("%s/%s", codec.Name(), pat.name), func(t *testing.T) {
				base := Config{
					Rounds: 2, LocalEpochs: 1, LocalBatch: 8, LR: 0.1, Seed: 31,
					Codec: codec, Faults: pat.faults, StragglerDeadline: 4,
				}
				// Flat unmasked reference at one worker.
				globalF, clientsF, test := hierFixture(t, 48, 33)
				fcfg := base
				fcfg.Engine = engine.New(engine.Config{Workers: 1})
				flat, err := NewCoordinator(globalF, clientsF, test.X, test.Y, fcfg)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := flat.Run(); err != nil {
					t.Fatal(err)
				}
				want := paramsDigest(flat.Global)

				for _, workers := range []int{1, 4, 16} {
					globalH, clientsH, testH := hierFixture(t, 48, 33)
					hcfg := HierConfig{Config: base, Aggregators: 6, SecureAgg: true,
						AggStragglerDeadline: 4}
					hcfg.Engine = engine.New(engine.Config{Workers: workers})
					hier, err := NewHierCoordinator(globalH, clientsH, testH.X, testH.Y, hcfg)
					if err != nil {
						t.Fatal(err)
					}
					stats, err := hier.Run()
					if err != nil {
						t.Fatal(err)
					}
					if got := paramsDigest(hier.Global); got != want {
						t.Fatalf("workers=%d: hier-masked global %s != flat-unmasked %s", workers, got, want)
					}
					s := stats[len(stats)-1]
					if s.Participants != 48 {
						t.Fatalf("workers=%d: %d participants, want 48", workers, s.Participants)
					}
					if pat.faults != nil && s.Dropouts == 0 {
						t.Fatalf("workers=%d: dropout pattern drew no dropouts", workers)
					}
					if s.CloudUplinkBytes == 0 || s.EdgeUplinkBytes == 0 {
						t.Fatalf("workers=%d: tier accounting idle: %+v", workers, s)
					}
					if s.CloudUplinkBytes >= s.EdgeUplinkBytes {
						t.Fatalf("workers=%d: cloud uplink %d not below edge uplink %d — fan-in saved nothing",
							workers, s.CloudUplinkBytes, s.EdgeUplinkBytes)
					}
				}
			})
		}
	}
}

// TestHierConvergesUnderWeather runs the two-tier topology with secure
// aggregation and weather on both tiers, and requires the global model to
// learn anyway, fingerprint-identical at 1/4/16 workers.
func TestHierConvergesUnderWeather(t *testing.T) {
	faults := func(round int, id string) ClientFault {
		s := engine.SeedForID(55, uint64(round), id)
		switch s % 6 {
		case 0:
			return ClientFault{Dropout: true}
		case 1:
			return ClientFault{SlowFactor: 16}
		}
		return ClientFault{}
	}
	var want string
	for _, workers := range []int{1, 4, 16} {
		global, clients, test := hierFixture(t, 64, 35)
		cfg := HierConfig{
			Config: Config{
				Rounds: 6, LocalEpochs: 2, LocalBatch: 8, LR: 0.1, Seed: 37,
				Engine: engine.New(engine.Config{Workers: workers}),
				Faults: faults, StragglerDeadline: 4,
			},
			Aggregators: 8, SecureAgg: true,
			AggFaults:            faults,
			AggStragglerDeadline: 4,
		}
		hier, err := NewHierCoordinator(global, clients, test.X, test.Y, cfg)
		if err != nil {
			t.Fatal(err)
		}
		stats, err := hier.Run()
		if err != nil {
			t.Fatal(err)
		}
		var aggFaults int
		for _, s := range stats {
			aggFaults += s.AggDropouts + s.AggLate
		}
		if aggFaults == 0 {
			t.Fatal("aggregator tier drew no faults across 6 rounds")
		}
		if acc := stats[len(stats)-1].TestAccuracy; acc < 0.8 {
			t.Fatalf("workers=%d: accuracy %v under two-tier weather < 0.8", workers, acc)
		}
		if got := paramsDigest(hier.Global); want == "" {
			want = got
		} else if got != want {
			t.Fatalf("workers=%d: global digest %s != workers=1's %s", workers, got, want)
		}
	}
}

// TestHier100kHeadline is the acceptance headline: a 100k-client round
// across 100 edge aggregators with masked aggregation, converging under
// dropout/straggler weather, fingerprint-identical at 1/4/16 workers. Under
// -short (the CI race step) the same assertions run over 2 000 clients and
// 20 aggregators.
func TestHier100kHeadline(t *testing.T) {
	nClients, nAggs := 100_000, 100
	if testing.Short() {
		nClients, nAggs = 2_000, 20
	}
	faults := func(round int, id string) ClientFault {
		s := engine.SeedForID(123, uint64(round), id)
		switch s % 10 {
		case 0:
			return ClientFault{Dropout: true}
		case 1:
			return ClientFault{SlowFactor: 16}
		}
		return ClientFault{}
	}
	// One shared pool of shard data, reused per run (the weights of the
	// run derive from cfg.Seed, not from these tensors' identity).
	rng := tensor.NewRNG(41)
	pool, test := dataset.Blobs(rng, 2400, 4, 3, 4).Split(0.85, rng)
	makeClients := func() []*Client {
		clients := make([]*Client, nClients)
		for i := range clients {
			lo := (2 * i) % (pool.Len() - 2)
			clients[i] = &Client{
				ID:   fmt.Sprintf("hk-%06d", i),
				Data: pool.Subset([]int{lo, lo + 1}),
			}
		}
		return clients
	}
	var want string
	var first RoundStats
	for _, workers := range []int{1, 4, 16} {
		grng := tensor.NewRNG(43)
		global := nn.NewNetwork([]int{4}, nn.NewDense(4, 3, grng))
		cfg := HierConfig{
			Config: Config{
				Rounds: 2, LocalEpochs: 1, LocalBatch: 4, LR: 0.2, Seed: 45,
				Engine: engine.New(engine.Config{Workers: workers}),
				Faults: faults, StragglerDeadline: 4,
			},
			Aggregators: nAggs, SecureAgg: true,
			AggFaults:            faults,
			AggStragglerDeadline: 4,
		}
		hier, err := NewHierCoordinator(global, makeClients(), test.X, test.Y, cfg)
		if err != nil {
			t.Fatal(err)
		}
		stats, err := hier.Run()
		if err != nil {
			t.Fatal(err)
		}
		s := stats[len(stats)-1]
		if s.Dropouts == 0 || s.Late == 0 || s.AggDropouts+s.AggLate == 0 {
			t.Fatalf("workers=%d: weather idle: %+v", workers, s)
		}
		if acc := s.TestAccuracy; acc < 0.6 {
			t.Fatalf("workers=%d: %d-client round accuracy %v < 0.6", workers, nClients, acc)
		}
		// The cloud tier hears one partial per aggregator, not every update.
		if s.CloudUplinkBytes*10 > s.EdgeUplinkBytes {
			t.Fatalf("workers=%d: cloud uplink %d vs edge %d — fan-in saving missing",
				workers, s.CloudUplinkBytes, s.EdgeUplinkBytes)
		}
		got := paramsDigest(hier.Global)
		if want == "" {
			want, first = got, s
			t.Logf("%d-client headline: digest=%s participants=%d dropouts=%d late=%d aggDrop=%d aggLate=%d edgeUp=%dB cloudUp=%dB acc=%.3f",
				nClients, got, s.Participants, s.Dropouts, s.Late, s.AggDropouts, s.AggLate,
				s.EdgeUplinkBytes, s.CloudUplinkBytes, s.TestAccuracy)
			continue
		}
		if got != want {
			t.Fatalf("workers=%d: digest %s != workers=1's %s — outcome depends on scheduling", workers, got, want)
		}
		if s != first {
			t.Fatalf("workers=%d: round stats diverged:\n%+v\n%+v", workers, s, first)
		}
	}
}

// TestHierCoordinatorValidation table-drives the constructor and tier-size
// error paths, and a client whose data the round must refuse.
func TestHierCoordinatorValidation(t *testing.T) {
	rng := tensor.NewRNG(47)
	net := nn.NewNetwork([]int{4}, nn.NewDense(4, 2, rng))
	ds := dataset.Blobs(rng, 40, 4, 2, 3)
	shards := dataset.PartitionIID(rng, ds, 4)
	clients := MakeClients(ds, shards, "v")
	mislabeled := MakeClients(ds, shards, "m")
	mislabeled[2].Data.Y[len(mislabeled[2].Data.Y)-1] = 2 // two classes: [0,2)
	wide := MakeClients(ds, shards, "w")
	wide[2].Data = dataset.Blobs(rng, wide[2].Data.Len(), 5, 2, 3) // the model takes 4 features
	cases := []struct {
		name    string
		global  *nn.Network
		clients []*Client
		cfg     HierConfig
		// roundFails names the client RunRound must fail on, after the
		// constructor accepted the fleet.
		roundFails string
	}{
		{"nil global", nil, clients, HierConfig{Aggregators: 2}, ""},
		{"no clients", net, nil, HierConfig{Aggregators: 2}, ""},
		{"zero aggregators", net, clients, HierConfig{}, ""},
		{"negative aggregators", net, clients, HierConfig{Aggregators: -1}, ""},
		{"more aggregators than clients", net, clients, HierConfig{Aggregators: 5}, ""},
		{"duplicate client IDs", net, []*Client{clients[0], clients[0]}, HierConfig{Aggregators: 1}, ""},
		{"nil client", net, []*Client{clients[0], nil}, HierConfig{Aggregators: 1}, ""},
		{"label out of range", net.Clone(), mislabeled, HierConfig{Aggregators: 2}, mislabeled[2].ID},
		{"wrong example width", net.Clone(), wide, HierConfig{Aggregators: 2}, wide[2].ID},
	}
	for _, c := range cases {
		hc, err := NewHierCoordinator(c.global, c.clients, nil, nil, c.cfg)
		if c.roundFails == "" {
			if err == nil {
				t.Fatalf("%s: constructor accepted it", c.name)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if _, err := hc.RunRound(); err == nil || !strings.Contains(err.Error(), c.roundFails) {
			t.Fatalf("%s: RunRound returned %v, want an error naming %s", c.name, err, c.roundFails)
		}
	}
	// Every client in exactly one cohort.
	hc, err := NewHierCoordinator(net, clients, nil, nil, HierConfig{Aggregators: 2, Config: Config{Seed: 3}})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, co := range hc.Cohorts {
		total += len(co.Clients)
	}
	if total != len(clients) || len(hc.Cohorts) != 2 {
		t.Fatalf("cohorts hold %d clients in %d cohorts", total, len(hc.Cohorts))
	}
}

// TestHierAllDropoutCohortAndDeadlines pins the degenerate weather paths:
// a cohort whose every client drops contributes nothing without erroring,
// an all-dropout round leaves the global untouched, and the per-tier
// straggler deadlines gate contributions (in-time stragglers aggregate,
// late ones upload wasted bytes).
func TestHierAllDropoutCohortAndDeadlines(t *testing.T) {
	global, clients, test := hierFixture(t, 24, 51)
	before := paramsDigest(global)
	allDrop := func(round int, id string) ClientFault { return ClientFault{Dropout: true} }
	hc, err := NewHierCoordinator(global, clients, test.X, test.Y, HierConfig{
		Config:      Config{Rounds: 1, Seed: 53, Faults: allDrop, LocalEpochs: 1, LocalBatch: 8, LR: 0.1},
		Aggregators: 4, SecureAgg: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := hc.RunRound()
	if err != nil {
		t.Fatal(err)
	}
	if s.Dropouts != s.Participants || s.EdgeUplinkBytes != 0 || s.CloudUplinkBytes != 0 {
		t.Fatalf("all-dropout round stats: %+v", s)
	}
	if paramsDigest(hc.Global) != before {
		t.Fatal("all-dropout round moved the global model")
	}

	// Aggregator deadlines: one cohort late, one in-time straggler.
	global2, clients2, test2 := hierFixture(t, 24, 55)
	before2 := paramsDigest(global2)
	aggFaults := func(round int, id string) ClientFault {
		switch id {
		case "agg-000":
			return ClientFault{SlowFactor: 16} // past deadline 4: late
		case "agg-001":
			return ClientFault{SlowFactor: 2} // in time
		case "agg-002":
			return ClientFault{Dropout: true}
		}
		return ClientFault{}
	}
	hc2, err := NewHierCoordinator(global2, clients2, test2.X, test2.Y, HierConfig{
		Config:      Config{Rounds: 1, Seed: 57, LocalEpochs: 1, LocalBatch: 8, LR: 0.1},
		Aggregators: 4, SecureAgg: true,
		AggFaults: aggFaults, AggStragglerDeadline: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	s2, err := hc2.RunRound()
	if err != nil {
		t.Fatal(err)
	}
	if s2.AggDropouts != 1 || s2.AggStragglers != 2 || s2.AggLate != 1 {
		t.Fatalf("aggregator fault counts: %+v", s2)
	}
	// The late cohort's partial was uploaded (cloud bytes charged) but a
	// dropped aggregator's cohort produced no traffic at all; with 4
	// cohorts only 2 contributed to the sum, and the model still moved.
	if s2.CloudUplinkBytes == 0 {
		t.Fatal("late cohort's upload never charged")
	}
	if paramsDigest(hc2.Global) == before2 {
		t.Fatal("surviving cohorts failed to move the global")
	}
}

// TestHierDeadlineZeroWaitsForStragglers pins the 0-deadline semantics on
// both tiers: everyone aggregates, nobody is late.
func TestHierDeadlineZeroWaitsForStragglers(t *testing.T) {
	global, clients, test := hierFixture(t, 16, 59)
	slow := func(round int, id string) ClientFault { return ClientFault{SlowFactor: 100} }
	hc, err := NewHierCoordinator(global, clients, test.X, test.Y, HierConfig{
		Config:      Config{Rounds: 1, Seed: 61, Faults: slow, LocalEpochs: 1, LocalBatch: 8, LR: 0.1},
		Aggregators: 2, SecureAgg: true, AggFaults: slow,
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := hc.RunRound()
	if err != nil {
		t.Fatal(err)
	}
	if s.Late != 0 || s.AggLate != 0 {
		t.Fatalf("0 deadline produced late entries: %+v", s)
	}
	if s.Stragglers != s.Participants || s.AggStragglers != 2 {
		t.Fatalf("straggler counts: %+v", s)
	}
}

// TestAggregatorSubmitValidation table-drives the edge accumulator's
// error paths.
func TestAggregatorSubmitValidation(t *testing.T) {
	seeds := NewPairwiseSeeds(tensor.NewRNG(63), 3)
	if _, err := NewAggregator("a", seeds, 0); err == nil {
		t.Fatal("accepted zero dimension")
	}
	if _, err := NewAggregator("a", PairwiseSeeds{}, 4); err == nil {
		t.Fatal("accepted empty seeds")
	}
	if _, err := NewAggregator("a", PairwiseSeeds{{1, 2}, {1}}, 4); err == nil {
		t.Fatal("accepted ragged seeds")
	}
	agg, err := NewAggregator("a", seeds, 2)
	if err != nil {
		t.Fatal(err)
	}
	m := []uint64{1, 2}
	if err := agg.Submit(3, m, 1); err == nil {
		t.Fatal("accepted out-of-range participant")
	}
	if err := agg.Submit(0, []uint64{1}, 1); err == nil {
		t.Fatal("accepted wrong-length update")
	}
	if err := agg.Submit(0, m, 0); err == nil {
		t.Fatal("accepted zero samples")
	}
	if err := agg.Submit(0, m, 1); err != nil {
		t.Fatal(err)
	}
	if err := agg.Submit(0, m, 1); err == nil {
		t.Fatal("accepted duplicate submission")
	}
	if agg.nRecv != 1 {
		t.Fatalf("received %d", agg.nRecv)
	}
	empty, err := NewAggregator("b", seeds, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := empty.Unmask(); err == nil {
		t.Fatal("unmasked an empty round")
	}
}

// TestMaskFixedCancelsExactly pins the ring arithmetic directly: masked
// contributions summed through the Aggregator equal the plain integer sum
// bit for bit, including after dropouts reconciled from surviving seeds.
func TestMaskFixedCancelsExactly(t *testing.T) {
	rng := tensor.NewRNG(65)
	const n, dim = 7, 64
	seeds := NewPairwiseSeeds(rng, n)
	contribs := make([][]int64, n)
	for i := range contribs {
		contribs[i] = make([]int64, dim)
		for k := range contribs[i] {
			contribs[i][k] = int64(rng.Intn(1<<30)) - (1 << 29)
		}
	}
	for _, absent := range [][]int{nil, {2}, {0, 5, 6}} {
		out := make(map[int]bool)
		for _, d := range absent {
			out[d] = true
		}
		agg, err := NewAggregator("t", seeds, dim)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]int64, dim)
		for i := 0; i < n; i++ {
			if out[i] {
				continue
			}
			masked, err := MaskFixed(contribs[i], i, seeds)
			if err != nil {
				t.Fatal(err)
			}
			if err := agg.Submit(i, masked, 1); err != nil {
				t.Fatal(err)
			}
			addInto(want, contribs[i])
		}
		got, samples, err := agg.Unmask()
		if err != nil {
			t.Fatal(err)
		}
		if samples != int64(n-len(absent)) {
			t.Fatalf("samples %d", samples)
		}
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("absent=%v: coordinate %d: %d != %d", absent, k, got[k], want[k])
			}
		}
	}
	for _, idx := range []int{-1, 9} {
		if _, err := MaskFixed(contribs[0], idx, seeds); err == nil {
			t.Fatalf("accepted out-of-range index %d", idx)
		}
	}
	if _, err := MaskFixed([]int64{1}, 0, PairwiseSeeds{{0, 1, 2}, {1, 0}, {2, 0, 0}}); err == nil {
		t.Fatal("accepted ragged seed matrix")
	}
}

// TestAggregatorSharedRace hammers one shared Aggregator and one shared
// HierCoordinator from 64 goroutines at 1/4/16 engine workers; run under
// -race in CI. Wrapping addition commutes, so the masked total must come
// out identical regardless of submission order, and concurrent RunRound
// calls serialize into a deterministic round sequence.
func TestAggregatorSharedRace(t *testing.T) {
	const goroutines = 64
	rng := tensor.NewRNG(67)
	const dim = 32
	seeds := NewPairwiseSeeds(rng, goroutines)
	contribs := make([][]int64, goroutines)
	masked := make([][]uint64, goroutines)
	want := make([]int64, dim)
	for i := range contribs {
		contribs[i] = make([]int64, dim)
		for k := range contribs[i] {
			contribs[i][k] = int64(rng.Intn(1 << 20))
		}
		addInto(want, contribs[i])
		m, err := MaskFixed(contribs[i], i, seeds)
		if err != nil {
			t.Fatal(err)
		}
		masked[i] = m
	}
	agg, err := NewAggregator("race", seeds, dim)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := agg.Submit(i, masked[i], 1); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	got, _, err := agg.Unmask()
	if err != nil {
		t.Fatal(err)
	}
	for k := range want {
		if got[k] != want[k] {
			t.Fatalf("concurrent masked sum differs at %d: %d != %d", k, got[k], want[k])
		}
	}

	// Shared coordinator: 64 concurrent RunRound calls must serialize
	// into rounds 1..64 with a schedule-independent terminal model.
	var digests []string
	for _, workers := range []int{1, 4, 16} {
		global, clients, test := hierFixture(t, 16, 69)
		hc, err := NewHierCoordinator(global, clients, test.X, test.Y, HierConfig{
			Config: Config{
				Rounds: goroutines, LocalEpochs: 1, LocalBatch: 8, LR: 0.05, Seed: 71,
				Engine: engine.New(engine.Config{Workers: workers}),
			},
			Aggregators: 4, SecureAgg: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for i := 0; i < goroutines; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := hc.RunRound(); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
		if hc.Round() != goroutines {
			t.Fatalf("workers=%d: %d rounds ran", workers, hc.Round())
		}
		digests = append(digests, paramsDigest(hc.Global))
	}
	if digests[0] != digests[1] || digests[1] != digests[2] {
		t.Fatalf("terminal model depends on worker count: %v", digests)
	}
}

// TestPersonalizeCohortsDeterministic checks per-cohort personalization:
// every non-empty cohort gets a fine-tuned variant, bit-identical at any
// worker count, and frozen layers stay frozen.
func TestPersonalizeCohortsDeterministic(t *testing.T) {
	var want map[string]string
	for _, workers := range []int{1, 4, 16} {
		global, clients, test := hierFixture(t, 24, 73)
		hc, err := NewHierCoordinator(global, clients, test.X, test.Y, HierConfig{
			Config: Config{Rounds: 2, LocalEpochs: 1, LocalBatch: 8, LR: 0.1, Seed: 75,
				Engine: engine.New(engine.Config{Workers: workers})},
			Aggregators: 4, SecureAgg: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := hc.Run(); err != nil {
			t.Fatal(err)
		}
		nets, err := hc.PersonalizeCohorts(PersonalizeConfig{FreezeLayers: 2, Epochs: 2, BatchSize: 8, LR: 0.05})
		if err != nil {
			t.Fatal(err)
		}
		if len(nets) != 4 {
			t.Fatalf("personalized %d cohorts, want 4", len(nets))
		}
		digests := make(map[string]string, len(nets))
		for id, n := range nets {
			digests[id] = paramsDigest(n)
			g0 := hc.Global.Layers()[0].(*nn.Dense).W.Value
			p0 := n.Layers()[0].(*nn.Dense).W.Value
			if !tensor.ApproxEqual(g0, p0, 0) {
				t.Fatalf("%s: frozen layer modified", id)
			}
			if digests[id] == paramsDigest(hc.Global) {
				t.Fatalf("%s: personalization did not move the head", id)
			}
		}
		if want == nil {
			want = digests
			continue
		}
		for id, d := range digests {
			if want[id] != d {
				t.Fatalf("workers=%d: cohort %s personalization depends on scheduling", workers, id)
			}
		}
	}
}

// TestPartialWireRoundTrip pins the varint cloud-uplink codec.
func TestPartialWireRoundTrip(t *testing.T) {
	rng := tensor.NewRNG(79)
	q := make([]int64, 300)
	for k := range q {
		switch k % 3 {
		case 0: // sparse zeros dominate a compressed update
		case 1:
			q[k] = int64(rng.Intn(1 << 10))
		default:
			q[k] = -int64(rng.Uint64() >> 20)
		}
	}
	enc := encodePartial(12345, q)
	samples, got, err := decodePartial(enc)
	if err != nil {
		t.Fatal(err)
	}
	if samples != 12345 || len(got) != len(q) {
		t.Fatalf("header mangled: samples=%d dim=%d", samples, len(got))
	}
	for k := range q {
		if got[k] != q[k] {
			t.Fatalf("coordinate %d: %d != %d", k, got[k], q[k])
		}
	}
	// A sparse partial must beat the dense 8B/coordinate encoding.
	if len(enc) >= 8*len(q) {
		t.Fatalf("varint partial %dB not below dense %dB", len(enc), 8*len(q))
	}
	wiretest.Strict(t, enc, reencodePartial)
	// A hostile uplink: a dimension its one coordinate byte cannot back.
	// Decoding used to allocate for it first — 64 GiB, then a makeslice
	// panic that took the cloud tier's round down.
	for _, dim := range []uint64{1 << 33, 1 << 62} {
		bad := append(binary.AppendUvarint(binary.AppendVarint(nil, 1), dim), 0)
		if _, _, err := decodePartial(bad); err == nil {
			t.Fatalf("decoded a %d-byte partial declaring %d coordinates", len(bad), dim)
		}
	}
}

// TestQuantizeFixedDefinedOnHostileInputs pins NaN/Inf/saturation.
func TestQuantizeFixedDefinedOnHostileInputs(t *testing.T) {
	u := []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)), 0, -0.0, 1, -1, 1e30, -1e30}
	q := quantizeFixed(u)
	if q[0] != 0 {
		t.Fatalf("NaN -> %d", q[0])
	}
	if q[1] != fixedMax || q[2] != -fixedMax || q[7] != fixedMax || q[8] != -fixedMax {
		t.Fatalf("Inf/overflow not saturated: %v", q)
	}
	if q[3] != 0 || q[4] != 0 {
		t.Fatalf("zeros: %v", q[3:5])
	}
	if q[5] != fixedOne || q[6] != -fixedOne {
		t.Fatalf("±1 -> %d,%d", q[5], q[6])
	}
}
