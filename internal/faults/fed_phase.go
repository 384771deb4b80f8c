package faults

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"

	"tinymlops/internal/core"
	"tinymlops/internal/dataset"
	"tinymlops/internal/fed"
	"tinymlops/internal/nn"
	"tinymlops/internal/quant"
	"tinymlops/internal/registry"
	"tinymlops/internal/tensor"
)

// FedReport records the hierarchical federated-learning phase: a synthetic
// client fleet (IDs disjoint from the device fleet, so its fault streams
// are independent draws from the same plane) trains the deployed model
// line for a few two-tier rounds under the scenario's weather, with edge
// aggregation masked. The improved global is published back into the
// scenario's registry as a rollout candidate.
type FedReport struct {
	Clients, Aggregators, Rounds int
	// Totals across rounds, both tiers.
	Participants, Dropouts, Stragglers, Late int
	AggDropouts, AggStragglers, AggLate      int
	EdgeUplinkBytes, CloudUplinkBytes        int64
	DownlinkBytes                            int64
	// FinalAccuracy is the global model's terminal test accuracy.
	FinalAccuracy float64
	// GlobalDigest fingerprints the terminal global weights bit-exactly.
	GlobalDigest string
	// PublishedID is the registry version the global was published as.
	PublishedID string
	// Personalized counts cohorts that received a fine-tuned variant.
	Personalized int
}

// runFedPhase drives the hierarchical federated plane under the scenario's
// chaos: fedClients synthetic clients in fedAggregators cohorts run
// fedRounds masked rounds, every round drawing fresh weather for both
// tiers from the plane (round-offset into the scenario's round counter so
// the streams never collide with device rounds). The aggregated global is
// published into p's registry and each cohort personalizes it.
func runFedPhase(p *core.Platform, plane *Plane, round *uint64, seed uint64) (*FedReport, error) {
	base := *round
	*round += fedRounds

	// The fed fleet's data: shards of one blob problem, test split shared.
	rng := tensor.NewRNG(seed + 0xfed)
	pool, test := dataset.Blobs(rng, 8*fedClients+200, 4, 3, 4).Split(0.9, rng)
	shards := dataset.PartitionIID(rng, pool, fedClients)
	clients := fed.MakeClients(pool, shards, "fedc")

	ff := plane.FedFaults()
	hcfg := fed.HierConfig{
		Config: fed.Config{
			Rounds: fedRounds, LocalEpochs: 1, LocalBatch: 8, LR: 0.1,
			Seed: seed ^ 0xfed,
			Faults: func(r int, id string) fed.ClientFault {
				return ff(int(base)+r, id)
			},
			StragglerDeadline: 4,
		},
		Aggregators: fedAggregators,
		SecureAgg:   true,
		AggFaults: func(r int, id string) fed.ClientFault {
			return ff(int(base)+r, "fed-"+id)
		},
		AggStragglerDeadline: 4,
	}
	// The phase trains the deployed model line the way a production
	// federated round would: latest version in, aggregate published back as
	// the next rollout candidate.
	hc, versions, stats, err := p.HierFederatedUpdate("chaos", clients, test, hcfg, registry.OptimizationSpec{
		Schemes: []quant.Scheme{quant.Int8},
	})
	if err != nil {
		return nil, fmt.Errorf("faults: fed phase: %w", err)
	}
	report := &FedReport{Clients: fedClients, Aggregators: fedAggregators, Rounds: fedRounds}
	for _, s := range stats {
		report.Participants += s.Participants
		report.Dropouts += s.Dropouts
		report.Stragglers += s.Stragglers
		report.Late += s.Late
		report.AggDropouts += s.AggDropouts
		report.AggStragglers += s.AggStragglers
		report.AggLate += s.AggLate
		report.EdgeUplinkBytes += s.EdgeUplinkBytes
		report.CloudUplinkBytes += s.CloudUplinkBytes
		report.DownlinkBytes += s.DownlinkBytes
	}
	report.FinalAccuracy = stats[len(stats)-1].TestAccuracy
	report.GlobalDigest = fedDigest(hc.Global)
	report.PublishedID = versions[0].ID

	// Each cohort gets its personalized variant of the published global.
	nets, err := hc.PersonalizeCohorts(fed.PersonalizeConfig{Epochs: 1})
	if err != nil {
		return nil, fmt.Errorf("faults: fed phase personalize: %w", err)
	}
	report.Personalized = len(nets)
	return report, nil
}

// fedDigest fingerprints a network's exact weights.
func fedDigest(net *nn.Network) string {
	h := sha256.New()
	for _, v := range net.FlatParams() {
		fmt.Fprintf(h, "%08x.", math.Float32bits(v))
	}
	return hex.EncodeToString(h.Sum(nil)[:12])
}
