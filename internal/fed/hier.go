package fed

import (
	"fmt"

	"tinymlops/internal/dataset"
	"tinymlops/internal/engine"
	"tinymlops/internal/nn"
	"tinymlops/internal/tensor"
)

// HierConfig controls a federated run over a topology. The embedded Config
// carries the client-tier knobs, with the same semantics at either width of
// the edge tier; the fields below describe the edge tier itself.
type HierConfig struct {
	Config
	// Aggregators is the edge-tier width. 0 is the flat topology, where
	// clients upload straight to the cloud. Otherwise each client is
	// assigned to one of the cohorts by engine.ShardForID(Seed, clientID,
	// Aggregators), so the partition is stable at any worker count or
	// client order.
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

// PersonalizeCohorts layers per-cohort fine-tuning on the current global:
// each cohort pools its clients' private shards and trains a personal
// variant (frozen shared layers and all — see Personalize), keyed by
// aggregator ID. Each cohort's stream derives from (Seed, round, ID), so
// the map is bit-identical at any worker count.
func (co *Coordinator) PersonalizeCohorts(cfg PersonalizeConfig) (map[string]*nn.Network, error) {
	co.mu.Lock()
	defer co.mu.Unlock()
	nets := make([]*nn.Network, len(co.Cohorts))
	if err := co.cfg.Engine.ForEach(len(co.Cohorts), func(i int) error {
		ch := co.Cohorts[i]
		if len(ch.Clients) == 0 {
			return nil
		}
		pooled, err := poolCohortData(ch)
		if err != nil {
			return fmt.Errorf("fed: %s: %w", ch.ID, err)
		}
		pcfg := cfg
		pcfg.RNG = tensor.NewRNG(engine.SeedForID(co.cfg.Seed, uint64(co.round), "personalize|"+ch.ID))
		net, err := Personalize(co.Global, pooled, pcfg)
		if err != nil {
			return fmt.Errorf("fed: %s: %w", ch.ID, err)
		}
		nets[i] = net
		return nil
	}); err != nil {
		return nil, err
	}
	out := make(map[string]*nn.Network, len(co.Cohorts))
	for i, n := range nets {
		if n != nil {
			out[co.Cohorts[i].ID] = n
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
