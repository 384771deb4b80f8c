package main

import (
	"fmt"
	"io"

	"tinymlops"
)

// cmdFed runs a hierarchical federated-learning simulation: a synthetic
// client fleet sharded across edge aggregators trains a small classifier
// for a few masked two-tier rounds under configurable dropout/straggler
// weather, printing a per-round, per-tier table.
func cmdFed(w io.Writer, args []string) error {
	fs := newFlagSet("fed")
	clients := fs.Int("clients", 1000, "fleet size (synthetic clients)")
	aggregators := fs.Int("aggregators", 10, "edge aggregator count (cohorts)")
	rounds := fs.Int("rounds", 3, "federated rounds")
	dropout := fs.Float64("dropout", 0.1, "per-round client/aggregator dropout probability")
	straggler := fs.Float64("straggler", 0.1, "per-round straggler probability (8x slowdown, deadline 4x)")
	secure := fs.Bool("secure", true, "mask edge uploads (pairwise secure aggregation)")
	codecName := fs.String("codec", "topk", "update codec: none, int8, ternary, topk")
	workers := fs.Int("workers", 0, "worker pool size (0 = all cores); results are identical at any value")
	seed := fs.Uint64("seed", 1, "root seed for data, sampling and weather")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *clients < *aggregators {
		return fmt.Errorf("-clients %d < -aggregators %d", *clients, *aggregators)
	}
	var codec tinymlops.UpdateCodec
	switch *codecName {
	case "none":
		codec = tinymlops.RawCodec{}
	case "int8":
		codec = tinymlops.Int8Codec{}
	case "ternary":
		codec = tinymlops.TernaryCodec{}
	case "topk":
		codec = tinymlops.TopKCodec{Ratio: 0.25}
	default:
		return fmt.Errorf("unknown codec %q", *codecName)
	}

	rng := tinymlops.NewRNG(*seed)
	pool, test := tinymlops.Blobs(rng, 4**clients+400, 4, 3, 4).Split(0.9, rng)
	shards := tinymlops.PartitionIID(rng, pool, *clients)
	clientFleet := tinymlops.MakeFederatedClients(pool, shards, "fedc")
	global := tinymlops.NewNetwork([]int{4},
		tinymlops.Dense(4, 16, rng), tinymlops.ReLU(), tinymlops.Dense(16, 3, rng))

	// The model line lives in a platform registry: publish the untrained
	// global, train it through the platform's two-tier federated update, and
	// the improved global comes back as the line's next rollout candidate.
	devices, err := tinymlops.NewStandardFleet(tinymlops.FleetSpec{CountPerProfile: 1, Seed: *seed})
	if err != nil {
		return err
	}
	platform, err := tinymlops.NewPlatform(devices, tinymlops.PlatformConfig{
		VendorKey: []byte("cli-vendor-key-0123456789abcdef0"), Seed: *seed, Workers: *workers,
	})
	if err != nil {
		return err
	}
	var spec tinymlops.OptimizationSpec
	if _, err := platform.Publish("fed", global, test, spec); err != nil {
		return err
	}

	ff := tinymlops.NewFaultPlane(tinymlops.ChaosConfig{
		Seed: *seed ^ 0xfed, PDropout: *dropout, PStraggler: *straggler, StragglerFactor: 8,
	}).FedFaults()
	hc, _, stats, err := platform.HierFederatedUpdate("fed", clientFleet, test, tinymlops.HierFederatedConfig{
		Config: tinymlops.FederatedConfig{
			Rounds: *rounds, LocalEpochs: 1, LocalBatch: 8, LR: 0.1, Seed: *seed,
			Codec: codec, Faults: ff, StragglerDeadline: 4,
		},
		Aggregators: *aggregators, SecureAgg: *secure,
		AggFaults: ff, AggStragglerDeadline: 4,
	}, spec)
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "hierarchical federated learning: %d clients, %d aggregators, codec=%s, secure=%v\n\n",
		*clients, *aggregators, codec.Name(), *secure)
	fmt.Fprintln(w, "round  part  drop  late  aggDrop aggLate    edge-up   cloud-up   downlink  accuracy")
	for r, s := range stats {
		fmt.Fprintf(w, "%5d %5d %5d %5d  %6d %7d %9dB %9dB %9dB %9.3f\n",
			r+1, s.Participants, s.Dropouts, s.Late, s.AggDropouts, s.AggLate,
			s.EdgeUplinkBytes, s.CloudUplinkBytes, s.DownlinkBytes, s.TestAccuracy)
	}
	fmt.Fprintf(w, "\nfinal accuracy %.3f over %d rounds; the cloud tier heard %d partials per round instead of %d client updates\n",
		tinymlops.Evaluate(hc.Global, test.X, test.Y), len(stats), *aggregators, *clients)
	return nil
}
