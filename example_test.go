package tinymlops_test

import (
	"fmt"
	"math"
	"net"
	"time"

	"tinymlops"
)

// ExampleBestSplit plans an edge–cloud split for a wearable-class device:
// on a fat uplink the cut moves cloud-ward, offline it is forced to the
// full-edge plan.
func ExampleBestSplit() {
	rng := tinymlops.NewRNG(1)
	net := tinymlops.NewNetwork([]int{64},
		tinymlops.Dense(64, 128, rng), tinymlops.ReLU(),
		tinymlops.Dense(128, 8, rng))
	costs, err := net.Summary()
	if err != nil {
		panic(err)
	}
	dev, _ := tinymlops.ProfileByName("m4-wearable")
	cloud, _ := tinymlops.ProfileByName("edge-gateway")

	best, curve, err := tinymlops.BestSplit(costs, dev, cloud, 32, 100e6, 100*time.Microsecond, 64*4)
	if err != nil {
		panic(err)
	}
	fmt.Printf("fat pipe: %d candidate plans, best cut %d\n", len(curve), best.Cut)

	offline, _, err := tinymlops.BestSplit(costs, dev, cloud, 32, 0, 0, 64*4)
	if err != nil {
		panic(err)
	}
	fmt.Printf("offline: best cut %d (all %d layers on-device)\n", offline.Cut, len(costs))
	// Output:
	// fat pipe: 4 candidate plans, best cut 0
	// offline: best cut 3 (all 3 layers on-device)
}

// ExamplePlatform_Offload deploys a model, opens a split-execution
// session against a cloud tier, and shows that the offloaded answer is
// identical to the device's own forward pass — partitioned execution
// changes where compute happens, never what it computes.
func ExamplePlatform_Offload() {
	rng := tinymlops.NewRNG(2)
	fleet, err := tinymlops.NewStandardFleet(tinymlops.FleetSpec{CountPerProfile: 1})
	if err != nil {
		panic(err)
	}
	for _, d := range fleet.Devices() {
		d.SetNet(tinymlops.WiFi)
		d.SetCharging(true)
	}
	platform, err := tinymlops.NewPlatform(fleet, tinymlops.PlatformConfig{
		VendorKey: []byte("example-vendor-key-0123456789abc"), Seed: 2,
	})
	if err != nil {
		panic(err)
	}

	ds := tinymlops.Blobs(rng, 200, 4, 3, 5)
	net := tinymlops.NewNetwork([]int{4},
		tinymlops.Dense(4, 16, rng), tinymlops.ReLU(), tinymlops.Dense(16, 3, rng))
	spec := tinymlops.OptimizationSpec{Evaluate: func(n *tinymlops.Network) float64 {
		return tinymlops.Evaluate(n, ds.X, ds.Y)
	}}
	if _, err := platform.Publish("demo", net, ds, spec); err != nil {
		panic(err)
	}
	dep, err := platform.Deploy("m4-wearable-00", "demo", tinymlops.DeployConfig{PrepaidQueries: 10})
	if err != nil {
		panic(err)
	}

	cloud := tinymlops.NewOffloadCloud()
	defer cloud.Close()
	sess, err := platform.Offload("m4-wearable-00", tinymlops.OffloadConfig{
		Cloud:  cloud,
		Plan:   &tinymlops.SplitPlan{Cut: 1}, // ship the 16-float hidden activation
		Replan: tinymlops.OffloadReplanConfig{Disabled: true},
	})
	if err != nil {
		panic(err)
	}

	x := ds.X.Data[:4]
	out, err := sess.Infer(x)
	if err != nil {
		panic(err)
	}
	logits := dep.ReferenceLogits(x)
	local := tinymlops.FromSlice(logits, 1, len(logits))
	fmt.Printf("mode=%s cut=%d\n", out.Split.Mode, out.Split.Cut)
	fmt.Printf("label matches on-device forward: %v\n", out.Label == local.ArgMaxRows()[0])
	fmt.Printf("meter used: %d\n", dep.Meter.Used())
	// Output:
	// mode=split cut=1
	// label matches on-device forward: true
	// meter used: 1
}

// ExamplePlatform_integerServing deploys the same model line to two
// policy cohorts: an int8-pinned deployment on NPU-class hardware serves
// through the native integer kernels (and the cost model charges the
// native int8 rate), while a float32-pinned deployment stays on the float
// engine.
func ExamplePlatform_integerServing() {
	rng := tinymlops.NewRNG(7)
	fleet, err := tinymlops.NewStandardFleet(tinymlops.FleetSpec{CountPerProfile: 1})
	if err != nil {
		panic(err)
	}
	for _, d := range fleet.Devices() {
		d.SetNet(tinymlops.WiFi)
		d.SetCharging(true)
	}
	platform, err := tinymlops.NewPlatform(fleet, tinymlops.PlatformConfig{
		VendorKey: []byte("example-vendor-key-0123456789abc"), Seed: 7,
	})
	if err != nil {
		panic(err)
	}
	ds := tinymlops.Blobs(rng, 200, 4, 2, 4)
	net := tinymlops.NewNetwork([]int{4}, tinymlops.Dense(4, 8, rng), tinymlops.ReLU(), tinymlops.Dense(8, 2, rng))
	if _, err := platform.Publish("kw", net, ds, tinymlops.OptimizationSpec{
		Schemes:  []tinymlops.Scheme{tinymlops.Int8},
		Evaluate: func(n *tinymlops.Network) float64 { return tinymlops.Evaluate(n, ds.X, ds.Y) },
	}); err != nil {
		panic(err)
	}

	depInt, err := platform.Deploy("npu-board-00", "kw", tinymlops.DeployConfig{
		PrepaidQueries: 10,
		Policy:         tinymlops.SelectionPolicy{Schemes: []tinymlops.Scheme{tinymlops.Int8}},
	})
	if err != nil {
		panic(err)
	}
	depFloat, err := platform.Deploy("phone-00", "kw", tinymlops.DeployConfig{
		PrepaidQueries: 10,
		Policy:         tinymlops.SelectionPolicy{Schemes: []tinymlops.Scheme{tinymlops.Float32}},
	})
	if err != nil {
		panic(err)
	}

	fmt.Printf("npu-board-00: variant %s, executes %s\n", depInt.Version.Scheme, depInt.ExecutionScheme())
	fmt.Printf("phone-00: variant %s, executes %s\n", depFloat.Version.Scheme, depFloat.ExecutionScheme())
	caps := depInt.Device().Caps
	macs := depInt.Version.Metrics.MACs
	fmt.Printf("npu charges %v natively vs %v at float32\n",
		caps.InferenceLatency(macs, 8), caps.InferenceLatency(macs, 32))
	// Output:
	// npu-board-00: variant int8, executes int8
	// phone-00: variant float32, executes float32
	// npu charges 3ns natively vs 400ns at float32
}

// ExamplePlatform_verifiedSettlement runs the verifiable pay-per-query
// loop: a verified-billing deployment attests a deterministic sample of
// its metered charges with sum-check proofs, the settlement report
// carries them over TCP, and the vendor's settler batch-verifies every
// proof before accepting the usage claim. A report whose tick count was
// inflated afterwards is rejected — the forged chain entries re-root the
// proof sample onto charges the device cannot prove.
func ExamplePlatform_verifiedSettlement() {
	rng := tinymlops.NewRNG(11)
	fleet, err := tinymlops.NewStandardFleet(tinymlops.FleetSpec{CountPerProfile: 1})
	if err != nil {
		panic(err)
	}
	for _, d := range fleet.Devices() {
		d.SetNet(tinymlops.WiFi)
		d.SetCharging(true)
	}
	platform, err := tinymlops.NewPlatform(fleet, tinymlops.PlatformConfig{
		VendorKey: []byte("example-vendor-key-0123456789abc"), Seed: 11,
		VerifiedBilling: true, AttestationRate: 2, // prove every ~2nd charge
	})
	if err != nil {
		panic(err)
	}
	ds := tinymlops.Blobs(rng, 200, 4, 2, 4)
	model := tinymlops.NewNetwork([]int{4},
		tinymlops.Dense(4, 8, rng), tinymlops.ReLU(), tinymlops.Dense(8, 2, rng))
	if _, err := platform.Publish("vb", model, ds, tinymlops.DefaultOptimizationSpec(ds)); err != nil {
		panic(err)
	}
	dep, err := platform.Deploy("phone-00", "vb", tinymlops.DeployConfig{PrepaidQueries: 100})
	if err != nil {
		panic(err)
	}
	x := make([]float32, 4)
	for i := 0; i < 8; i++ {
		for f := 0; f < 4; f++ {
			x[f] = ds.X.At2(i, f)
		}
		if _, err := dep.Infer(x); err != nil {
			panic(err)
		}
	}

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		panic(err)
	}
	srv := tinymlops.ServeSettlement(l, platform)
	defer srv.Close()

	report, err := dep.Meter.BuildAttestedReport()
	if err != nil {
		panic(err)
	}
	receipt, err := tinymlops.SettleAttestedOverTCP(srv.Addr(), report)
	if err != nil {
		panic(err)
	}
	fmt.Printf("honest: ok=%v acked=%d proofs-verified=%d\n",
		receipt.OK, receipt.AckSeq, receipt.ProofsChecked)
	dep.Meter.Acknowledge(receipt.AckSeq)

	// A fresh window, inflated before submission: chain-valid forged
	// entries, but the re-rooted proof sample demands inference the
	// device never ran.
	for i := 0; i < 4; i++ {
		if _, err := dep.Infer(x); err != nil {
			panic(err)
		}
	}
	forged, err := dep.Meter.BuildAttestedReport()
	if err != nil {
		panic(err)
	}
	tinymlops.TamperAttestedReport(tinymlops.FaultProfile{Overclaim: true}, &forged)
	rejected, err := tinymlops.SettleAttestedOverTCP(srv.Addr(), forged)
	if err != nil {
		panic(err)
	}
	fmt.Printf("inflated: ok=%v reason=%q\n", rejected.OK, rejected.Reason)
	// Output:
	// honest: ok=true acked=8 proofs-verified=6
	// inflated: ok=false reason="inference proof rejected"
}

// ExamplePlatform_hierarchicalFed runs a hierarchical federated update of
// a published model line: a 120-client fleet shards into 6 edge-aggregator
// cohorts, every edge uplink is masked (the aggregator sees only the
// cohort sum), and the cloud hears one compact partial per aggregator —
// then the improved global publishes back as the next rollout candidate.
func ExamplePlatform_hierarchicalFed() {
	rng := tinymlops.NewRNG(13)
	fleet, err := tinymlops.NewStandardFleet(tinymlops.FleetSpec{CountPerProfile: 1})
	if err != nil {
		panic(err)
	}
	platform, err := tinymlops.NewPlatform(fleet, tinymlops.PlatformConfig{
		VendorKey: []byte("example-vendor-key-0123456789abc"), Seed: 13,
	})
	if err != nil {
		panic(err)
	}
	ds := tinymlops.Blobs(rng, 1000, 4, 3, 4)
	spec := tinymlops.OptimizationSpec{
		Evaluate: func(n *tinymlops.Network) float64 { return tinymlops.Evaluate(n, ds.X, ds.Y) },
	}
	global := tinymlops.NewNetwork([]int{4}, tinymlops.Dense(4, 8, rng), tinymlops.ReLU(), tinymlops.Dense(8, 3, rng))
	if _, err := platform.Publish("fed-demo", global, ds, spec); err != nil {
		panic(err)
	}

	shards := tinymlops.PartitionIID(rng, ds, 120)
	clients := tinymlops.MakeFederatedClients(ds, shards, "home")
	var cfg tinymlops.HierFederatedConfig
	cfg.Rounds = 2
	cfg.LocalEpochs = 1
	cfg.LocalBatch = 8
	cfg.LR = 0.1
	cfg.Seed = 13
	cfg.Aggregators = 6
	cfg.SecureAgg = true
	_, versions, stats, err := platform.HierFederatedUpdate("fed-demo", clients, ds, cfg, spec)
	if err != nil {
		panic(err)
	}
	last := stats[len(stats)-1]
	fmt.Printf("%d clients in %d cohorts, %d rounds\n", len(clients), last.Cohorts, len(stats))
	fmt.Printf("cloud uplink is %dx smaller than the edge tier's\n", last.EdgeUplinkBytes/last.CloudUplinkBytes)
	fmt.Printf("published %d new version(s) tagged %s\n", len(versions), "fed:topology=hierarchical")
	// Output:
	// 120 clients in 6 cohorts, 2 rounds
	// cloud uplink is 45x smaller than the edge tier's
	// published 1 new version(s) tagged fed:topology=hierarchical
}

// ExamplePlatform_swarmRollout distributes a staged OTA update
// peer-to-peer: the registry serves only the canary wave, every later
// wave fetches hash-verified chunks from devices updated in earlier
// waves, and the swarm's ledger proves byte conservation — every
// delivered byte attributed to exactly one source.
func ExamplePlatform_swarmRollout() {
	rng := tinymlops.NewRNG(11)
	fleet, err := tinymlops.NewStandardFleet(tinymlops.FleetSpec{CountPerProfile: 4})
	if err != nil {
		panic(err)
	}
	for _, d := range fleet.Devices() {
		d.SetNet(tinymlops.WiFi)
		d.SetCharging(true)
	}
	platform, err := tinymlops.NewPlatform(fleet, tinymlops.PlatformConfig{
		VendorKey: []byte("example-swarm-key-0123456789abcd"), Seed: 11,
	})
	if err != nil {
		panic(err)
	}
	ds := tinymlops.Blobs(rng, 200, 4, 3, 4)
	net := tinymlops.NewNetwork([]int{4}, tinymlops.Dense(4, 8, rng), tinymlops.ReLU(), tinymlops.Dense(8, 3, rng))
	spec := tinymlops.OptimizationSpec{
		Evaluate: func(n *tinymlops.Network) float64 { return tinymlops.Evaluate(n, ds.X, ds.Y) },
	}
	if _, err := platform.Publish("swarm-demo", net, ds, spec); err != nil {
		panic(err)
	}
	ids := make([]string, 0, 24)
	for _, d := range fleet.Devices() {
		ids = append(ids, d.ID)
	}
	if _, err := platform.DeployMany(ids, "swarm-demo", tinymlops.DeployConfig{
		PrepaidQueries: 100, Calibration: ds,
	}); err != nil {
		panic(err)
	}

	// v2: a fine-tune of v1 — same topology, so the OTA ships as a
	// sparse delta with its own swarm key.
	v2net := net.Clone()
	if _, err := tinymlops.Train(v2net, ds.X, ds.Y, tinymlops.TrainConfig{
		Epochs: 1, BatchSize: 32, Optimizer: tinymlops.SGD(0.05), RNG: rng,
	}); err != nil {
		panic(err)
	}
	v2s, err := platform.Publish("swarm-demo", v2net, ds, spec)
	if err != nil {
		panic(err)
	}

	sw, err := platform.NewSwarm(tinymlops.SwarmOptions{ChunkBytes: 64, Seed: 12})
	if err != nil {
		panic(err)
	}
	res, err := platform.Rollout(v2s[0], tinymlops.RolloutConfig{
		Waves: []tinymlops.RolloutWave{
			{Name: "canary", Fraction: 0.1},
			{Name: "cohort", Fraction: 0.5},
			{Name: "fleet", Fraction: 1.0},
		},
		Seed:        13,
		Gate:        tinymlops.RolloutGate{MaxErrorRate: 0.5, MaxUpdateFailures: 0},
		Calibration: ds,
		Swarm:       sw,
	})
	if err != nil {
		panic(err)
	}

	fmt.Printf("rollout completed: %v over %d waves\n", res.Completed, len(res.Waves))
	for _, w := range res.Waves {
		var reg, peer int64
		for _, o := range w.Outcomes {
			reg += o.Transfer.RegistryBytes
			peer += o.Transfer.PeerBytes
		}
		fmt.Printf("  %s: %d devices, registry-funded %v, peer-funded %v\n",
			w.Wave.Name, len(w.Outcomes), reg > 0, peer > 0)
	}
	st := sw.Stats()
	fmt.Printf("byte conservation: %v (registry + peers = delivered)\n",
		st.RegistryEgressBytes+st.PeerBytes == st.DeliveredBytes &&
			st.ConservationViolations == 0)
	fmt.Printf("chunk hashes rejected: %d, transfers still in flight: %d\n",
		st.HashRejects, sw.InFlight())
	// Output:
	// rollout completed: true over 3 waves
	//   canary: 2 devices, registry-funded true, peer-funded false
	//   cohort: 10 devices, registry-funded false, peer-funded true
	//   fleet: 12 devices, registry-funded false, peer-funded true
	// byte conservation: true (registry + peers = delivered)
	// chunk hashes rejected: 0, transfers still in flight: 0
}

// ExamplePlatform_protectedOffload exercises the protected portable
// plane end-to-end: the published model is compiled into a gas-pinned
// procvm module and registered as a variant, one device runs a
// watermarked deployment whose offload suffix executes inside the
// vendor enclave, another is pinned to the compiled module and ships the
// raw input for whole-module enclave execution — and both answers stay
// bit-identical to the deployment's own reference forward.
func ExamplePlatform_protectedOffload() {
	rng := tinymlops.NewRNG(5)
	fleet, err := tinymlops.NewStandardFleet(tinymlops.FleetSpec{CountPerProfile: 1})
	if err != nil {
		panic(err)
	}
	for _, d := range fleet.Devices() {
		d.SetNet(tinymlops.WiFi)
		d.SetCharging(true)
	}
	platform, err := tinymlops.NewPlatform(fleet, tinymlops.PlatformConfig{
		VendorKey: []byte("example-vendor-key-0123456789abc"), Seed: 5,
	})
	if err != nil {
		panic(err)
	}

	ds := tinymlops.Blobs(rng, 200, 4, 3, 5)
	net := tinymlops.NewNetwork([]int{4},
		tinymlops.Dense(4, 16, rng), tinymlops.ReLU(), tinymlops.Dense(16, 3, rng))
	spec := tinymlops.OptimizationSpec{Evaluate: func(n *tinymlops.Network) float64 {
		return tinymlops.Evaluate(n, ds.X, ds.Y)
	}}
	versions, err := platform.Publish("protected", net, ds, spec)
	if err != nil {
		panic(err)
	}
	base := versions[0]

	// Compile the published artifact into a procvm module and register it
	// as a variant of the float base.
	artifact, err := platform.Registry.Load(base.ID)
	if err != nil {
		panic(err)
	}
	module, err := tinymlops.CompileProcVM(artifact, tinymlops.ProcVMCompileOptions{Name: "protected"})
	if err != nil {
		panic(err)
	}
	if _, err := platform.Registry.RegisterCompiled(base.ID, module, base.Metrics.Accuracy); err != nil {
		panic(err)
	}

	// A watermarked deployment: the per-device copy embeds the customer
	// mark, so its offload suffix must execute inside the vendor enclave.
	wmDep, err := platform.Deploy("edge-gateway-00", "protected", tinymlops.DeployConfig{
		Watermark: "acme-devices", PrepaidQueries: 10,
	})
	if err != nil {
		panic(err)
	}
	// A compiled-module deployment: the policy pins the procvm artifact
	// kind, and the deployment serves it on the gas-metered runtime.
	vmDep, err := platform.Deploy("m4-wearable-00", "protected", tinymlops.DeployConfig{
		Policy:         tinymlops.SelectionPolicy{Kinds: []string{tinymlops.ModelKindProcVM}},
		PrepaidQueries: 10,
	})
	if err != nil {
		panic(err)
	}

	cloud := tinymlops.NewOffloadCloud()
	defer cloud.Close()
	wmSess, err := platform.Offload("edge-gateway-00", tinymlops.OffloadConfig{
		Cloud: cloud, Plan: &tinymlops.SplitPlan{Cut: 1},
		Replan: tinymlops.OffloadReplanConfig{Disabled: true},
	})
	if err != nil {
		panic(err)
	}
	vmSess, err := platform.Offload("m4-wearable-00", tinymlops.OffloadConfig{
		Cloud: cloud, Plan: &tinymlops.SplitPlan{Cut: 0}, // ship the raw input
		Replan: tinymlops.OffloadReplanConfig{Disabled: true},
	})
	if err != nil {
		panic(err)
	}

	x := ds.X.Data[:4]
	wmOut, err := wmSess.Infer(x)
	if err != nil {
		panic(err)
	}
	vmOut, err := vmSess.Infer(x)
	if err != nil {
		panic(err)
	}
	exact := func(got, want []float32) bool {
		for i := range got {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				return false
			}
		}
		return len(got) == len(want)
	}
	fmt.Printf("watermarked: mode=%s watermarked=%v bit-exact=%v\n",
		wmOut.Split.Mode, wmDep.Watermarked(), exact(wmOut.Split.Logits, wmDep.ReferenceLogits(x)))
	fmt.Printf("procvm: mode=%s kind=%q bit-exact=%v\n",
		vmOut.Split.Mode, vmDep.Version.Kind, exact(vmOut.Split.Logits, vmDep.ReferenceLogits(x)))
	// Output:
	// watermarked: mode=split watermarked=true bit-exact=true
	// procvm: mode=split kind="procvm" bit-exact=true
}
