package fed

import (
	"fmt"
	"sync"

	"tinymlops/internal/dataset"
	"tinymlops/internal/engine"
	"tinymlops/internal/nn"
	"tinymlops/internal/tensor"
)

// Two-tier federated topology: edge aggregators each own a sharded cohort
// of clients and talk to the cloud coordinator on the cohort's behalf. A
// round is
//
//	cloud ──broadcast──▶ aggregator ──broadcast──▶ client
//	client ──masked fixed-point update──▶ aggregator
//	aggregator ──varint cohort partial──▶ cloud
//
// The cloud only ever sees one partial per aggregator (the fan-in saving
// that makes 100k-client rounds affordable on the vendor uplink), and
// with SecureAgg the aggregator only ever sees masked words plus the
// exact cohort sum — no individual update at either tier. Because every
// quantity that feeds the global model lives in the int64 fixed-point
// ring (see fixed.go), the hierarchical grouping is bit-identical to the
// flat coordinator's sum over the same clients, masks or no masks.

// HierConfig controls a hierarchical federated run. The embedded Config
// carries the client-tier knobs with flat-identical semantics
// (ClientsPerRound caps each cohort's sample).
type HierConfig struct {
	Config
	// Aggregators is the edge-tier width; each client is assigned to one
	// of the cohorts by engine.ShardForID(Seed, clientID, Aggregators),
	// so the partition is stable at any worker count or client order.
	Aggregators int
	// SecureAgg runs the edge tier over masked fixed-point updates:
	// clients upload pairwise-masked vectors, the aggregator learns only
	// the cohort sum, and dropped clients' masks are reconciled exactly
	// from the surviving peers' seeds. Every round cross-checks the
	// unmasked reference and errors on any bit difference.
	SecureAgg bool
	// AggFaults injects aggregator-tier weather, with the same semantics
	// as Config.Faults one tier up: a Dropout crashes the aggregator
	// before it fans out (its whole cohort sits the round out), a
	// SlowFactor past AggStragglerDeadline delivers the cohort partial
	// after the cloud's deadline (edge traffic spent, contribution lost).
	AggFaults func(round int, aggID string) ClientFault
	// AggStragglerDeadline is the cloud tier's deadline (0 waits).
	AggStragglerDeadline float64
}

// Cohort is one edge aggregator's client set.
type Cohort struct {
	// ID names the aggregator ("agg-017"); fault draws key off it.
	ID string
	// Clients, in fleet order. Membership is fixed for the run.
	Clients []*Client
}

// HierCoordinator runs two-tier federated averaging. Methods serialize on
// an internal mutex, so a shared coordinator is safe under concurrent
// callers; the round result itself never depends on scheduling.
type HierCoordinator struct {
	Global  *nn.Network
	Cohorts []*Cohort
	cfg     HierConfig

	mu    sync.Mutex
	testX *tensor.Tensor
	testY []int
	round int
	// prev is the global as of the last broadcast, so each round's
	// downlink ships a bit-exact nn delta patch rather than the full
	// artifact (full artifact on the first round only).
	prev *nn.Network
	// arenas lends each worker its training workspace (workspace.go).
	arenas *engine.ArenaPool
}

// NewHierCoordinator shards clients into cfg.Aggregators cohorts and
// builds the two-tier coordinator. testX/testY may be nil to skip
// accuracy tracking.
func NewHierCoordinator(global *nn.Network, clients []*Client, testX *tensor.Tensor, testY []int, cfg HierConfig) (*HierCoordinator, error) {
	if global == nil {
		return nil, fmt.Errorf("fed: hier: nil global model")
	}
	if len(clients) == 0 {
		return nil, fmt.Errorf("fed: hier: no clients")
	}
	if cfg.Aggregators < 1 {
		return nil, fmt.Errorf("fed: hier: %d aggregators", cfg.Aggregators)
	}
	if cfg.Aggregators > len(clients) {
		return nil, fmt.Errorf("fed: hier: %d aggregators for %d clients", cfg.Aggregators, len(clients))
	}
	seen := make(map[string]bool, len(clients))
	for _, c := range clients {
		if c == nil || c.Data == nil {
			return nil, fmt.Errorf("fed: hier: nil client or client data")
		}
		if seen[c.ID] {
			return nil, fmt.Errorf("fed: hier: duplicate client ID %q", c.ID)
		}
		seen[c.ID] = true
	}
	cfg.normalize()
	cohorts := make([]*Cohort, cfg.Aggregators)
	for i := range cohorts {
		cohorts[i] = &Cohort{ID: fmt.Sprintf("agg-%03d", i)}
	}
	for _, c := range clients {
		i := engine.ShardForID(cfg.Seed, c.ID, cfg.Aggregators)
		cohorts[i].Clients = append(cohorts[i].Clients, c)
	}
	return &HierCoordinator{
		Global: global, Cohorts: cohorts, cfg: cfg,
		testX: testX, testY: testY,
		arenas: engine.NewArenaPool(),
	}, nil
}

// Round returns how many rounds have completed.
func (hc *HierCoordinator) Round() int {
	hc.mu.Lock()
	defer hc.mu.Unlock()
	return hc.round
}

// cohortResult is one aggregator's round outcome, merged serially by the
// cloud after the edge fan-out.
type cohortResult struct {
	wire         []byte // varint cohort partial (nil when nothing survived)
	participants int
	dropouts     int
	stragglers   int
	late         int
	edgeUp       int64
	edgeDown     int64
	aggDropout   bool
	aggStraggler bool
	aggLate      bool
}

// RunRound executes one two-tier round and returns its statistics.
// Cohorts fan out over the engine pool; everything inside a cohort is
// serial, and the cloud merge walks cohorts in index order, so the round
// is bit-identical at any worker count.
func (hc *HierCoordinator) RunRound() (RoundStats, error) {
	hc.mu.Lock()
	defer hc.mu.Unlock()
	hc.round++
	round := hc.round
	stats := RoundStats{Round: round, Cohorts: len(hc.Cohorts)}

	globalFlat := hc.Global.FlatParams()
	// Broadcast payload: the first round ships the full artifact, later
	// rounds a bit-exact delta patch against the previous broadcast.
	var bcastBytes int64
	if hc.prev == nil {
		blob, err := hc.Global.MarshalBinary()
		if err != nil {
			return stats, err
		}
		bcastBytes = int64(len(blob))
	} else {
		patch, err := nn.EncodeDelta(hc.prev, hc.Global)
		if err != nil {
			return stats, err
		}
		bcastBytes = int64(len(patch))
	}
	hc.prev = hc.Global.Clone()

	results := make([]cohortResult, len(hc.Cohorts))
	if err := hc.cfg.Engine.ForEach(len(hc.Cohorts), func(i int) error {
		r, err := hc.runCohort(hc.Cohorts[i], round, globalFlat, bcastBytes)
		if err != nil {
			return fmt.Errorf("fed: %s: %w", hc.Cohorts[i].ID, err)
		}
		results[i] = r
		return nil
	}); err != nil {
		return stats, err
	}

	// Cloud merge, serial in cohort order. Integer addition commutes, so
	// the order is only for the stats' sake.
	total := make([]int64, len(globalFlat))
	var totalSamples int64
	for _, r := range results {
		stats.Participants += r.participants
		stats.Dropouts += r.dropouts
		stats.Stragglers += r.stragglers
		stats.Late += r.late
		stats.EdgeUplinkBytes += r.edgeUp
		stats.EdgeDownlinkBytes += r.edgeDown
		if r.aggDropout {
			stats.AggDropouts++
			stats.CloudDownlinkBytes += bcastBytes // broadcast was sent
			continue
		}
		stats.CloudDownlinkBytes += bcastBytes
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
		samples, partial, err := decodePartial(r.wire)
		if err != nil {
			return stats, err
		}
		if len(partial) != len(total) {
			return stats, fmt.Errorf("fed: cohort partial dimension %d, want %d", len(partial), len(total))
		}
		addInto(total, partial)
		totalSamples += samples
	}
	stats.UplinkBytes = stats.EdgeUplinkBytes + stats.CloudUplinkBytes
	stats.DownlinkBytes = stats.EdgeDownlinkBytes + stats.CloudDownlinkBytes

	if totalSamples > 0 {
		if err := hc.Global.SetFlatParams(applyFixed(globalFlat, total, totalSamples)); err != nil {
			return stats, err
		}
	}
	if hc.testX != nil {
		stats.TestAccuracy = nn.Evaluate(hc.Global, hc.testX, hc.testY)
	}
	return stats, nil
}

// runCohort runs one aggregator's edge round: sample the cohort, train
// survivors, collect (masked) fixed-point contributions, reconcile masks
// and produce the cohort partial wire.
func (hc *HierCoordinator) runCohort(co *Cohort, round int, globalFlat []float32, bcastBytes int64) (cohortResult, error) {
	cfg := &hc.cfg
	var res cohortResult

	// Aggregator-tier weather first: a dropped aggregator crashes before
	// fanning out, so its cohort sees no traffic at all this round.
	if cfg.AggFaults != nil {
		af := cfg.AggFaults(round, co.ID)
		if af.Dropout {
			res.aggDropout = true
			return res, nil
		}
		if af.SlowFactor > 1 {
			res.aggStraggler = true
			if cfg.AggStragglerDeadline > 0 && af.SlowFactor > cfg.AggStragglerDeadline {
				res.aggLate = true
			}
		}
	}

	var eligible []*Client
	for _, c := range co.Clients {
		if c.Eligible() {
			eligible = append(eligible, c)
		}
	}
	if len(eligible) == 0 {
		return res, nil
	}
	sampled := eligible
	if cfg.ClientsPerRound > 0 && cfg.ClientsPerRound < len(eligible) {
		rng := tensor.NewRNG(engine.SeedForID(cfg.Seed, uint64(round), "sample|"+co.ID))
		perm := rng.Perm(len(eligible))
		sampled = make([]*Client, cfg.ClientsPerRound)
		for i := range sampled {
			sampled[i] = eligible[perm[i]]
		}
	}
	res.participants = len(sampled)
	res.edgeDown = bcastBytes * int64(len(sampled))

	// Client weather, decided up front — same semantics as the flat tier.
	faults := make([]ClientFault, len(sampled))
	late := make([]bool, len(sampled))
	for i, c := range sampled {
		if cfg.Faults == nil {
			continue
		}
		f := cfg.Faults(round, c.ID)
		faults[i] = f
		if f.Dropout {
			res.dropouts++
			continue
		}
		if f.SlowFactor > 1 {
			res.stragglers++
			if cfg.StragglerDeadline > 0 && f.SlowFactor > cfg.StragglerDeadline {
				late[i] = true
				res.late++
			}
		}
	}

	ar := hc.arenas.Acquire()
	defer hc.arenas.Release(ar)
	ws := ar.Slot(hc, newWorkspace).(*workspace)

	// The round's pairwise seeds cover every sampled client — agreed at
	// fan-out time, before anyone knows who will drop.
	var agg *Aggregator
	var seeds PairwiseSeeds
	var rows [][]uint64
	if cfg.SecureAgg {
		seeds = NewPairwiseSeeds(tensor.NewRNG(engine.SeedForID(cfg.Seed, uint64(round), "pairwise|"+co.ID)), len(sampled))
		var err error
		agg, err = NewAggregator(co.ID, seeds, len(globalFlat))
		if err != nil {
			return res, err
		}
		rows = ws.cohortRows(len(sampled), len(globalFlat))
	}

	// reference is the unmasked integer sum the masked path must
	// reproduce bit for bit (and the whole partial when SecureAgg is off).
	reference := make([]int64, len(globalFlat))
	var refSamples int64
	for i, c := range sampled {
		if faults[i].Dropout {
			continue // crashed before training; no edge traffic
		}
		u, err := localTrain(&cfg.Config, ws, hc.Global, globalFlat, c, round)
		if err != nil {
			return res, err
		}
		// Edge uplink: masked mode ships the dense uint64 vector plus a
		// sample-count header — uniform mask words are incompressible;
		// that is the privacy price. Plain mode wraps the codec payload
		// in the nn delta container (exact sparse-or-dense patches).
		wire := int64(8*len(u.delta) + 8)
		if !cfg.SecureAgg {
			wire, err = plainWireBytes(ws, hc.Global, globalFlat, u.delta)
			if err != nil {
				return res, fmt.Errorf("client %s wire: %w", c.ID, err)
			}
		}
		res.edgeUp += wire
		if c.Device != nil {
			// localTrain charged the codec payload; top up to the edge
			// wire when the container is bigger.
			if extra := wire - int64(u.bytes); extra > 0 {
				if _, err := c.Device.Upload(extra); err != nil {
					return res, fmt.Errorf("client %s upload: %w", c.ID, err)
				}
			}
		}
		if late[i] {
			continue // uploaded, but past the edge deadline: not summed
		}
		weighFixed(ws.contrib, u.delta, u.samples)
		addInto(reference, ws.contrib)
		refSamples += int64(u.samples)
		if cfg.SecureAgg {
			rows[i] = ws.row(ws.contrib)
		}
	}
	if refSamples == 0 {
		return res, nil // every sampled client dropped or arrived late
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
			if err := agg.Submit(i, masked, sampled[i].Data.Len()); err != nil {
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
		// masks of dropped and late clients, the masked sum must equal
		// the unmasked reference exactly.
		for k := range unmasked {
			if unmasked[k] != reference[k] {
				return res, fmt.Errorf("mask cancellation broke at coordinate %d: masked %d != reference %d", k, unmasked[k], reference[k])
			}
		}
		partial = unmasked
	}
	res.wire = encodePartial(refSamples, partial)
	return res, nil
}

// Run executes cfg.Rounds rounds and returns per-round statistics.
func (hc *HierCoordinator) Run() ([]RoundStats, error) {
	out := make([]RoundStats, 0, hc.cfg.Rounds)
	for r := 0; r < hc.cfg.Rounds; r++ {
		s, err := hc.RunRound()
		if err != nil {
			return out, err
		}
		out = append(out, s)
	}
	return out, nil
}

// PersonalizeCohorts layers per-cohort fine-tuning on the current global:
// each cohort pools its clients' private shards and trains a personal
// variant (frozen shared layers and all — see Personalize), keyed by
// aggregator ID. Each cohort's stream derives from (Seed, round, ID), so
// the map is bit-identical at any worker count.
func (hc *HierCoordinator) PersonalizeCohorts(cfg PersonalizeConfig) (map[string]*nn.Network, error) {
	hc.mu.Lock()
	defer hc.mu.Unlock()
	nets := make([]*nn.Network, len(hc.Cohorts))
	if err := hc.cfg.Engine.ForEach(len(hc.Cohorts), func(i int) error {
		co := hc.Cohorts[i]
		if len(co.Clients) == 0 {
			return nil
		}
		pooled, err := poolCohortData(co)
		if err != nil {
			return fmt.Errorf("fed: %s: %w", co.ID, err)
		}
		pcfg := cfg
		pcfg.RNG = tensor.NewRNG(engine.SeedForID(hc.cfg.Seed, uint64(hc.round), "personalize|"+co.ID))
		net, err := Personalize(hc.Global, pooled, pcfg)
		if err != nil {
			return fmt.Errorf("fed: %s: %w", co.ID, err)
		}
		nets[i] = net
		return nil
	}); err != nil {
		return nil, err
	}
	out := make(map[string]*nn.Network, len(hc.Cohorts))
	for i, n := range nets {
		if n != nil {
			out[hc.Cohorts[i].ID] = n
		}
	}
	return out, nil
}

// poolCohortData concatenates a cohort's client shards into one dataset.
func poolCohortData(co *Cohort) (*dataset.Dataset, error) {
	rows, classes := 0, 0
	var es int
	var shape []int
	for _, c := range co.Clients {
		rows += c.Data.Len()
		if c.Data.NumClasses > classes {
			classes = c.Data.NumClasses
		}
		if shape == nil {
			shape = c.Data.X.Shape()
			es = c.Data.X.Size() / c.Data.Len()
		} else if c.Data.X.Size()/c.Data.Len() != es {
			return nil, fmt.Errorf("mismatched example shapes across cohort shards")
		}
	}
	if rows == 0 {
		return nil, fmt.Errorf("cohort has no data")
	}
	x := tensor.New(append([]int{rows}, shape[1:]...)...)
	y := make([]int, 0, rows)
	off := 0
	for _, c := range co.Clients {
		n := c.Data.Len() * es
		copy(x.Data[off:off+n], c.Data.X.Data[:n])
		off += n
		y = append(y, c.Data.Y...)
	}
	return &dataset.Dataset{Name: co.ID, X: x, Y: y, NumClasses: classes}, nil
}
