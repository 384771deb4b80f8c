package fed

import (
	"fmt"

	"tinymlops/internal/dataset"
	"tinymlops/internal/device"
	"tinymlops/internal/engine"
	"tinymlops/internal/nn"
	"tinymlops/internal/tensor"
)

// Client is one federated participant: a private data shard, optionally
// tied to a simulated device whose charger/WiFi state gates participation
// (§III-D: "calculate the model updates when the device is idle or
// connected to a charger").
type Client struct {
	ID   string
	Data *dataset.Dataset
	// Device, when set, gates participation on Charging() && WiFi.
	Device *device.Device
}

// Eligible reports whether the client may train this round.
func (c *Client) Eligible() bool {
	if c.Device == nil {
		return true
	}
	return c.Device.Charging() && c.Device.Net() == device.WiFi
}

// Config controls federated optimization.
type Config struct {
	// Rounds of federated averaging.
	Rounds int
	// ClientsPerRound samples this many eligible clients (0 = all). The
	// hierarchical coordinator applies the cap per cohort.
	ClientsPerRound int
	// LocalEpochs and LocalBatch configure each client's local training.
	LocalEpochs int
	LocalBatch  int
	// LR is the client learning rate.
	LR float32
	// ProximalMu, when > 0, adds the FedProx term μ/2·‖w−w_global‖² to
	// each client's objective, taming client drift on non-IID shards.
	ProximalMu float32
	// Codec compresses uplink updates (nil = NoneCodec).
	Codec Codec
	// Seed derives all stochasticity (client sampling, local shuffling).
	// A client's round-r training stream is a pure function of
	// (Seed, r, client ID), so the same client produces a bit-identical
	// update under any topology, worker count or iteration order.
	Seed uint64
	// Engine bounds the per-round client-training fan-out (nil = a
	// GOMAXPROCS-wide pool). Rounds previously spawned one goroutine per
	// sampled client, which at fleet scale meant thousands of concurrent
	// local trainings thrashing the scheduler.
	Engine *engine.Engine
	// Faults, when non-nil, injects per-round client failures after
	// sampling: a Dropout crashes the client before it trains (downlink
	// spent, nothing comes back), a SlowFactor > 1 marks it a straggler.
	// The hook is called once per sampled client per round and must be a
	// pure function of (round, clientID) so results stay worker-count
	// independent — the fault plane's derivation guarantees this.
	Faults func(round int, clientID string) ClientFault
	// StragglerDeadline, when > 0, is the SlowFactor beyond which a
	// straggler's update arrives after the aggregation deadline: the
	// client trained and uploaded (radio charged), but the server ignores
	// the late update. 0 waits for everyone.
	StragglerDeadline float64
}

// normalize fills Config defaults in place.
func (cfg *Config) normalize() {
	if cfg.Rounds <= 0 {
		cfg.Rounds = 1
	}
	if cfg.LocalEpochs <= 0 {
		cfg.LocalEpochs = 1
	}
	if cfg.LocalBatch <= 0 {
		cfg.LocalBatch = 16
	}
	if cfg.LR <= 0 {
		cfg.LR = 0.05
	}
	if cfg.Codec == nil {
		cfg.Codec = NoneCodec{}
	}
	if cfg.Engine == nil {
		cfg.Engine = engine.Default()
	}
}

// ClientFault is one sampled client's injected failure for one round.
type ClientFault struct {
	// Dropout crashes the client after it receives the global model and
	// before it returns an update.
	Dropout bool
	// SlowFactor > 1 marks the client a straggler. The factor's only
	// effect is the comparison against Config.StragglerDeadline: within
	// the deadline the update aggregates normally (and the round counts a
	// straggler), beyond it the update arrives too late to count — the
	// coordinator does not otherwise model per-client round time.
	SlowFactor float64
}

// RoundStats records one round's outcome.
type RoundStats struct {
	Round        int
	Participants int
	// UplinkBytes is the total update traffic across all tiers;
	// DownlinkBytes the total model broadcast traffic.
	UplinkBytes   int64
	DownlinkBytes int64
	// Per-tier accounting for the hierarchical topology. Edge covers
	// client ↔ aggregator traffic, Cloud covers aggregator ↔ coordinator.
	// The flat coordinator reports its single client ↔ cloud hop as the
	// cloud tier, so flat-vs-hierarchical cloud fan-in compares directly.
	EdgeUplinkBytes    int64
	EdgeDownlinkBytes  int64
	CloudUplinkBytes   int64
	CloudDownlinkBytes int64
	// TestAccuracy of the averaged global model (if a test set is given).
	TestAccuracy float64
	// Dropouts counts sampled clients that crashed before returning an
	// update; Stragglers counts slow clients, and Late the subset whose
	// update missed the aggregation deadline (trained and uploaded, but
	// excluded from the average). Aggregated counts only cover
	// Participants − Dropouts − Late clients.
	Dropouts   int
	Stragglers int
	Late       int
	// Cohorts is the edge-aggregator count (hierarchical rounds only);
	// AggDropouts/AggStragglers/AggLate are the aggregator-tier faults —
	// a dropped aggregator takes its whole cohort's contribution with it.
	Cohorts       int
	AggDropouts   int
	AggStragglers int
	AggLate       int
}

// Coordinator runs flat federated averaging over a set of clients.
type Coordinator struct {
	Global  *nn.Network
	Clients []*Client
	cfg     Config

	testX *tensor.Tensor
	testY []int
	rng   *tensor.RNG
	round int
	// arenas lends each worker its training workspace (workspace.go).
	arenas *engine.ArenaPool
}

// NewCoordinator builds a coordinator around a global model. testX/testY
// may be nil to skip accuracy tracking.
func NewCoordinator(global *nn.Network, clients []*Client, testX *tensor.Tensor, testY []int, cfg Config) (*Coordinator, error) {
	if len(clients) == 0 {
		return nil, fmt.Errorf("fed: no clients")
	}
	cfg.normalize()
	return &Coordinator{
		Global: global, Clients: clients, cfg: cfg,
		testX: testX, testY: testY,
		rng:    tensor.NewRNG(cfg.Seed),
		arenas: engine.NewArenaPool(),
	}, nil
}

// RunRound executes one round of federated averaging and returns its
// statistics. Local training runs concurrently across sampled clients.
func (co *Coordinator) RunRound() (RoundStats, error) {
	co.round++
	stats := RoundStats{Round: co.round}

	var eligible []*Client
	for _, c := range co.Clients {
		if c.Eligible() {
			eligible = append(eligible, c)
		}
	}
	if len(eligible) == 0 {
		// No chargers + WiFi this round: skip, as a real fleet would.
		if co.testX != nil {
			stats.TestAccuracy = nn.Evaluate(co.Global, co.testX, co.testY)
		}
		return stats, nil
	}
	sampled := eligible
	if co.cfg.ClientsPerRound > 0 && co.cfg.ClientsPerRound < len(eligible) {
		perm := co.rng.Perm(len(eligible))
		sampled = make([]*Client, co.cfg.ClientsPerRound)
		for i := 0; i < co.cfg.ClientsPerRound; i++ {
			sampled[i] = eligible[perm[i]]
		}
	}
	stats.Participants = len(sampled)

	globalFlat := co.Global.FlatParams()
	modelBytes := int64(4 * len(globalFlat))
	// Every sampled client receives the broadcast — dropouts and late
	// stragglers included; their downlink is spent either way.
	stats.DownlinkBytes = modelBytes * int64(len(sampled))

	// Injected client faults, decided up front from (round, clientID) so
	// the round outcome cannot depend on scheduling. A dropout crashes
	// before training; a late straggler trains and uploads but its update
	// misses the deadline and is excluded from the average.
	faults := make([]ClientFault, len(sampled))
	late := make([]bool, len(sampled))
	if co.cfg.Faults != nil {
		for i, c := range sampled {
			f := co.cfg.Faults(co.round, c.ID)
			faults[i] = f
			if f.Dropout {
				stats.Dropouts++
				continue
			}
			if f.SlowFactor > 1 {
				stats.Stragglers++
				if co.cfg.StragglerDeadline > 0 && f.SlowFactor > co.cfg.StragglerDeadline {
					late[i] = true
					stats.Late++
				}
			}
		}
	}

	// Local trainings fan out over the bounded engine pool; each client's
	// stochasticity is derived from (Seed, round, ID), so the round result
	// does not depend on the worker count or iteration order.
	updates := make([]clientUpdate, len(sampled))
	if err := co.cfg.Engine.ForEach(len(sampled), func(i int) error {
		if faults[i].Dropout {
			return nil // crashed before training; zero update, zero uplink
		}
		ar := co.arenas.Acquire()
		defer co.arenas.Release(ar)
		var err error
		updates[i], err = localTrain(&co.cfg, ar.Slot(co, newWorkspace).(*workspace), co.Global, globalFlat, sampled[i], co.round)
		return err
	}); err != nil {
		return stats, err
	}
	for i := range updates {
		if late[i] {
			// The upload happened (bytes already charged below), but the
			// server aggregates without it.
			updates[i].samples = 0
			updates[i].delta = nil
		}
	}

	// Sample-weighted aggregation in int64 fixed point (see fixed.go):
	// integer addition is associative, so this flat sum is bit-identical
	// to any hierarchical grouping of the same contributions.
	total := make([]int64, len(globalFlat))
	contrib := make([]int64, len(globalFlat))
	var totalSamples int64
	for _, u := range updates {
		stats.UplinkBytes += int64(u.bytes)
		if u.samples == 0 || u.delta == nil {
			continue
		}
		weighFixed(contrib, u.delta, u.samples)
		addInto(total, contrib)
		totalSamples += int64(u.samples)
	}
	if totalSamples > 0 {
		if err := co.Global.SetFlatParams(applyFixed(globalFlat, total, totalSamples)); err != nil {
			return stats, err
		}
	}
	// Flat topology: the single hop is the cloud tier.
	stats.CloudUplinkBytes = stats.UplinkBytes
	stats.CloudDownlinkBytes = stats.DownlinkBytes
	if co.testX != nil {
		stats.TestAccuracy = nn.Evaluate(co.Global, co.testX, co.testY)
	}
	return stats, nil
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

// MakeClients shards a dataset into federated clients using the provided
// partition (index lists per client).
func MakeClients(ds *dataset.Dataset, shards [][]int, idPrefix string) []*Client {
	out := make([]*Client, 0, len(shards))
	for i, shard := range shards {
		if len(shard) == 0 {
			continue
		}
		out = append(out, &Client{
			ID:   fmt.Sprintf("%s-%03d", idPrefix, i),
			Data: ds.Subset(shard),
		})
	}
	return out
}
