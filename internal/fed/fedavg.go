package fed

import (
	"fmt"

	"tinymlops/internal/dataset"
	"tinymlops/internal/device"
	"tinymlops/internal/engine"
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
	// Seed derives all stochasticity (cohort assignment, pairwise masks,
	// local shuffling).
	// A client's round-r training stream is a pure function of
	// (Seed, r, client ID), so the same client produces a bit-identical
	// update under any topology, worker count or iteration order.
	Seed uint64
	// Engine bounds the per-round client-training fan-out (nil = a
	// GOMAXPROCS-wide pool). Rounds previously spawned one goroutine per
	// client, which at fleet scale meant thousands of concurrent local
	// trainings thrashing the scheduler.
	Engine *engine.Engine
	// Faults, when non-nil, injects per-round failures into eligible
	// clients: a Dropout crashes the client before it trains (downlink
	// spent, nothing comes back), a SlowFactor > 1 marks it a straggler.
	// The hook is called once per eligible client per round and must be a
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

// ClientFault is one eligible client's injected failure for one round.
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
	// Per-tier accounting. Edge covers client ↔ aggregator traffic, Cloud
	// covers what reaches the coordinator: aggregator ↔ cloud, or with no
	// edge tier the clients' own hop, so flat-vs-hierarchical cloud fan-in
	// compares directly.
	EdgeUplinkBytes    int64
	EdgeDownlinkBytes  int64
	CloudUplinkBytes   int64
	CloudDownlinkBytes int64
	// TestAccuracy of the averaged global model (if a test set is given).
	TestAccuracy float64
	// Participants counts eligible clients, each sent the broadcast.
	// Dropouts counts participants that crashed before returning an
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
