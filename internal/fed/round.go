package fed

import (
	"fmt"
	"slices"
	"sync"

	"tinymlops/internal/engine"
	"tinymlops/internal/nn"
	"tinymlops/internal/tensor"
)

// One round engine runs every topology. The edge tier has 0 aggregators
// (flat: each client uploads its codec payload straight to the cloud) or N,
// each owning a sharded cohort and talking to the cloud on its behalf:
//
//	cloud ──broadcast──▶ aggregator ──broadcast──▶ client
//	client ──(masked) fixed-point update──▶ aggregator
//	aggregator ──varint cohort partial──▶ cloud
//
// The cloud only ever sees one partial per aggregator (the fan-in saving
// that makes 100k-client rounds affordable on the vendor uplink), and with
// SecureAgg the aggregator only ever sees masked words plus the exact cohort
// sum — no individual update at either tier. Because every quantity that
// feeds the global model lives in the int64 fixed-point ring (see fixed.go),
// any grouping of the same clients is bit-identical, masks or no masks.

// Coordinator runs federated averaging over a topology. Methods serialize on
// an internal mutex, so a shared coordinator is safe under concurrent
// callers; the round result itself never depends on scheduling.
type Coordinator struct {
	Global *nn.Network
	// Cohorts are the edge aggregators' client sets; nil with no edge tier.
	Cohorts []*Cohort
	cfg     HierConfig
	// units are what a round fans out over: the cohorts, or with no edge
	// tier one unit per client, which has no aggregator (and no ID).
	units []*Cohort

	mu    sync.Mutex
	testX *tensor.Tensor
	testY []int
	round int
	// prev is the global as of the last edge broadcast, so each round's
	// downlink ships a bit-exact nn delta patch rather than the full
	// artifact (full artifact on the first round only).
	prev *nn.Network
	// sums holds every unit's unmasked fixed-point sum, len(units) × the
	// model's dimension, zeroed at the start of each round.
	sums []int64
	// arenas lends each worker its training workspace (workspace.go).
	arenas *engine.ArenaPool
}

// HierCoordinator is the name the two-tier callers know the engine by.
type HierCoordinator = Coordinator

// New builds a coordinator around a global model, with cfg.Aggregators edge
// aggregators (0 for the flat topology). testX/testY may be nil to skip
// accuracy tracking.
func New(global *nn.Network, clients []*Client, testX *tensor.Tensor, testY []int, cfg HierConfig) (*Coordinator, error) {
	if global == nil {
		return nil, fmt.Errorf("fed: nil global model")
	}
	if len(clients) == 0 {
		return nil, fmt.Errorf("fed: no clients")
	}
	if cfg.Aggregators < 0 || cfg.Aggregators > len(clients) {
		return nil, fmt.Errorf("fed: %d aggregators for %d clients", cfg.Aggregators, len(clients))
	}
	if cfg.Aggregators == 0 && (cfg.SecureAgg || cfg.AggFaults != nil) {
		return nil, fmt.Errorf("fed: secure aggregation and aggregator faults need an edge tier")
	}
	if testX != nil && (!slices.Equal(testX.Shape()[1:], global.InputShape) || testX.Dim(0) != len(testY)) {
		return nil, fmt.Errorf("fed: test set %v with %d labels does not fit a model over [n %v]",
			testX.Shape(), len(testY), global.InputShape)
	}
	seen := make(map[string]bool, len(clients))
	for _, c := range clients {
		if c == nil || c.Data == nil {
			return nil, fmt.Errorf("fed: nil client or client data")
		}
		if seen[c.ID] {
			return nil, fmt.Errorf("fed: duplicate client ID %q", c.ID)
		}
		if c.Data.Len() == 0 {
			return nil, fmt.Errorf("fed: client %q has no examples", c.ID)
		}
		seen[c.ID] = true
	}
	cfg.normalize()
	co := &Coordinator{
		Global: global, cfg: cfg,
		testX: testX, testY: testY,
		arenas: engine.NewArenaPool(),
	}
	if cfg.Aggregators == 0 {
		co.units = make([]*Cohort, len(clients))
		ones := make([]Cohort, len(clients))
		for i := range clients {
			ones[i].Clients = clients[i : i+1]
			co.units[i] = &ones[i]
		}
		return co, nil
	}
	co.Cohorts = make([]*Cohort, cfg.Aggregators)
	for i := range co.Cohorts {
		co.Cohorts[i] = &Cohort{ID: fmt.Sprintf("agg-%03d", i)}
	}
	for _, c := range clients {
		i := engine.ShardForID(cfg.Seed, c.ID, cfg.Aggregators)
		co.Cohorts[i].Clients = append(co.Cohorts[i].Clients, c)
	}
	co.units = co.Cohorts
	return co, nil
}

// NewCoordinator builds a flat coordinator: no edge tier.
func NewCoordinator(global *nn.Network, clients []*Client, testX *tensor.Tensor, testY []int, cfg Config) (*Coordinator, error) {
	return New(global, clients, testX, testY, HierConfig{Config: cfg})
}

// NewHierCoordinator builds a two-tier coordinator; it refuses an empty edge
// tier.
func NewHierCoordinator(global *nn.Network, clients []*Client, testX *tensor.Tensor, testY []int, cfg HierConfig) (*HierCoordinator, error) {
	if cfg.Aggregators < 1 {
		return nil, fmt.Errorf("fed: hier: %d aggregators", cfg.Aggregators)
	}
	return New(global, clients, testX, testY, cfg)
}

// Round returns how many rounds have completed.
func (co *Coordinator) Round() int {
	co.mu.Lock()
	defer co.mu.Unlock()
	return co.round
}

// unitResult is one unit's round outcome, merged serially by the cloud after
// the fan-out.
type unitResult struct {
	// partial is the unit's weighed fixed-point sum over samples examples
	// (nil when nothing survived); an aggregator ships it to the cloud as
	// wire instead.
	partial []int64
	samples int64
	wire    []byte
	// up and down are the client hop's bytes.
	up, down                                 int64
	participants, dropouts, stragglers, late int
	aggDropout, aggStraggler, aggLate        bool
}

// RunRound executes one round and returns its statistics. Units fan out over
// the engine pool; everything inside a unit is serial, and the cloud merge
// walks units in index order, so the round is bit-identical at any worker
// count.
func (co *Coordinator) RunRound() (RoundStats, error) {
	co.mu.Lock()
	defer co.mu.Unlock()
	co.round++
	stats := RoundStats{Round: co.round, Cohorts: len(co.Cohorts)}

	globalFlat := co.Global.FlatParams()
	bcast, err := co.broadcast(len(globalFlat))
	if err != nil {
		return stats, err
	}
	dim := len(globalFlat)
	if len(co.sums) != len(co.units)*dim {
		co.sums = make([]int64, len(co.units)*dim)
	} else {
		clear(co.sums)
	}
	results := make([]unitResult, len(co.units))
	if err := co.cfg.Engine.ForEach(len(co.units), func(i int) error {
		r, err := co.runUnit(co.units[i], co.sums[i*dim:(i+1)*dim:(i+1)*dim], globalFlat, bcast)
		if err != nil && co.Cohorts != nil {
			return fmt.Errorf("fed: %s: %w", co.units[i].ID, err)
		}
		results[i] = r
		return err
	}); err != nil {
		return stats, err
	}

	// Cloud merge. Integer addition commutes, so the order is only for the
	// stats' sake.
	total := make([]int64, len(globalFlat))
	var totalSamples int64
	for _, r := range results {
		stats.Participants += r.participants
		stats.Dropouts += r.dropouts
		stats.Stragglers += r.stragglers
		stats.Late += r.late
		if co.Cohorts == nil {
			stats.CloudUplinkBytes += r.up
			stats.CloudDownlinkBytes += r.down
		} else {
			stats.EdgeUplinkBytes += r.up
			stats.EdgeDownlinkBytes += r.down
			stats.CloudDownlinkBytes += bcast // sent even to an aggregator that drops
			if r.aggDropout {
				stats.AggDropouts++
				continue
			}
			if r.aggStraggler {
				stats.AggStragglers++
			}
			if r.wire == nil {
				continue // nothing survived in the cohort
			}
			stats.CloudUplinkBytes += int64(len(r.wire))
			if r.aggLate {
				stats.AggLate++
				continue // partial arrived past the cloud deadline
			}
			if r.samples, r.partial, err = decodePartial(r.wire); err != nil {
				return stats, err
			}
			if len(r.partial) != len(total) {
				return stats, fmt.Errorf("fed: cohort partial dimension %d, want %d", len(r.partial), len(total))
			}
		}
		if r.partial != nil {
			addInto(total, r.partial)
			totalSamples += r.samples
		}
	}
	stats.UplinkBytes = stats.EdgeUplinkBytes + stats.CloudUplinkBytes
	stats.DownlinkBytes = stats.EdgeDownlinkBytes + stats.CloudDownlinkBytes

	if totalSamples > 0 {
		if err := co.Global.SetFlatParams(applyFixed(globalFlat, total, totalSamples)); err != nil {
			return stats, err
		}
	}
	if co.testX != nil {
		stats.TestAccuracy = nn.Evaluate(co.Global, co.testX, co.testY)
	}
	return stats, nil
}

// broadcast is what one receiver's model download costs this round. With no
// edge tier each client reads the raw parameters, 4 bytes apiece. An
// aggregator receives the full artifact on the first round and a bit-exact
// delta patch against the previous broadcast after, and relays the same
// bytes to each of its clients.
func (co *Coordinator) broadcast(dim int) (int64, error) {
	if co.Cohorts == nil {
		return int64(4 * dim), nil
	}
	var blob []byte
	var err error
	if co.prev == nil {
		blob, err = co.Global.MarshalBinary()
	} else {
		blob, err = nn.EncodeDelta(co.prev, co.Global)
	}
	if err != nil {
		return 0, err
	}
	co.prev = co.Global.Clone()
	return int64(len(blob)), nil
}

// runUnit runs one unit's share of the round: its aggregator's weather, then
// its eligible clients' weather, training and uploads, and the weighed sum
// of the updates that arrive in time — under SecureAgg summed from masked
// words and cross-checked against reference, the zeroed plain sum the
// coordinator lends the unit for the round.
func (co *Coordinator) runUnit(u *Cohort, reference []int64, globalFlat []float32, bcast int64) (unitResult, error) {
	cfg := &co.cfg
	round := co.round
	var res unitResult

	// Aggregator-tier weather first: a dropped aggregator crashes before
	// fanning out, so its cohort sees no traffic at all this round.
	if cfg.AggFaults != nil {
		af := cfg.AggFaults(round, u.ID)
		if af.Dropout {
			res.aggDropout = true
			return res, nil
		}
		if af.SlowFactor > 1 {
			res.aggStraggler = true
			res.aggLate = cfg.AggStragglerDeadline > 0 && af.SlowFactor > cfg.AggStragglerDeadline
		}
	}

	ar := co.arenas.Acquire()
	defer co.arenas.Release(ar)
	ws := ar.Slot(co, newWorkspace).(*workspace)

	eligible := ws.eligible[:0]
	for _, c := range u.Clients {
		if c.Eligible() {
			eligible = append(eligible, c)
		}
	}
	ws.eligible = eligible
	if len(eligible) == 0 {
		return res, nil // no chargers + WiFi this round: sit it out
	}
	res.participants = len(eligible)
	res.down = bcast * int64(len(eligible))

	// The round's pairwise seeds cover every eligible client — agreed at
	// fan-out time, before anyone knows who will drop.
	var agg *Aggregator
	var seeds PairwiseSeeds
	var rows [][]uint64
	if cfg.SecureAgg {
		seeds = NewPairwiseSeeds(tensor.NewRNG(engine.SeedForID(cfg.Seed, uint64(round), "pairwise|"+u.ID)), len(eligible))
		var err error
		if agg, err = NewAggregator(u.ID, seeds, len(globalFlat)); err != nil {
			return res, err
		}
		rows = ws.cohortRows(len(eligible), len(globalFlat))
	}

	// reference is the unmasked integer sum the masked path must reproduce
	// bit for bit (and the whole partial when SecureAgg is off).
	var refSamples int64
	for i, c := range eligible {
		// Client weather, a pure function of (round, ID): a dropout crashes
		// before training, a late straggler trains and uploads but misses
		// the deadline.
		var f ClientFault
		if cfg.Faults != nil {
			f = cfg.Faults(round, c.ID)
		}
		if f.Dropout {
			res.dropouts++
			continue // no uplink traffic
		}
		late := false
		if f.SlowFactor > 1 {
			res.stragglers++
			if late = cfg.StragglerDeadline > 0 && f.SlowFactor > cfg.StragglerDeadline; late {
				res.late++
			}
		}
		up, err := localTrain(&cfg.Config, ws, co.Global, globalFlat, c, round)
		if err != nil {
			return res, err
		}
		// Uplink: with no edge tier the codec payload itself. A masked edge
		// ships the dense uint64 vector plus a sample-count header — uniform
		// mask words are incompressible; that is the privacy price. A plain
		// edge wraps the update in the nn delta container (exact
		// sparse-or-dense patches), sized without being built.
		wire := int64(up.bytes)
		if cfg.SecureAgg {
			wire = int64(8*len(up.delta) + 8)
		} else if co.Cohorts != nil {
			n, err := nn.DeltaSize(co.Global, up.delta)
			if err != nil {
				return res, fmt.Errorf("client %s wire: %w", c.ID, err)
			}
			wire = int64(n)
		}
		res.up += wire
		// localTrain charged the codec payload to the radio; top up to the
		// wire when the container is bigger.
		if extra := wire - int64(up.bytes); c.Device != nil && extra > 0 {
			if _, err := c.Device.Upload(extra); err != nil {
				return res, fmt.Errorf("client %s upload: %w", c.ID, err)
			}
		}
		if late {
			continue // uploaded, but past the deadline: not summed
		}
		weighFixed(ws.contrib, up.delta, up.samples)
		addInto(reference, ws.contrib)
		refSamples += int64(up.samples)
		if cfg.SecureAgg {
			rows[i] = ws.row(ws.contrib)
		}
	}
	if refSamples == 0 {
		return res, nil // every eligible client dropped or arrived late
	}

	partial := reference
	if cfg.SecureAgg {
		// Every client that made the deadline masks its contribution and
		// submits it; the aggregator sees masked words and nothing else.
		maskCohort(rows, seeds)
		for i, masked := range rows {
			if masked == nil {
				continue
			}
			if err := agg.Submit(i, masked, eligible[i].Data.Len()); err != nil {
				return res, err
			}
		}
		unmasked, got, err := agg.Unmask()
		if err != nil {
			return res, err
		}
		if got != refSamples {
			return res, fmt.Errorf("masked sample total %d != reference %d", got, refSamples)
		}
		// The invariant the whole tier stands on: after reconciling the
		// masks of dropped and late clients, the masked sum must equal the
		// unmasked reference exactly.
		for k := range unmasked {
			if unmasked[k] != reference[k] {
				return res, fmt.Errorf("mask cancellation broke at coordinate %d: masked %d != reference %d", k, unmasked[k], reference[k])
			}
		}
		partial = unmasked
	}
	if co.Cohorts != nil {
		res.wire = encodePartial(refSamples, partial)
	} else {
		res.partial, res.samples = partial, refSamples
	}
	return res, nil
}

// Run executes cfg.Rounds rounds and returns per-round statistics.
func (co *Coordinator) Run() ([]RoundStats, error) {
	out := make([]RoundStats, 0, co.cfg.Rounds)
	for r := 0; r < co.cfg.Rounds; r++ {
		s, err := co.RunRound()
		if err != nil {
			return out, err
		}
		out = append(out, s)
	}
	return out, nil
}
