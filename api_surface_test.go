package tinymlops_test

import (
	"math"
	"net"
	"strings"
	"testing"
	"time"

	"tinymlops"
)

// TestDatasetGenerators exercises every public generator and the drift
// stream through the facade.
func TestDatasetGenerators(t *testing.T) {
	rng := tinymlops.NewRNG(1)
	cases := []struct {
		name string
		ds   *tinymlops.Dataset
	}{
		{"blobs", tinymlops.Blobs(rng, 100, 4, 3, 3)},
		{"rings", tinymlops.Rings(rng, 100, 2, 0.1)},
		{"keywords", tinymlops.KeywordSeq(rng, 100, 32, 4, 0.1, 0.2)},
		{"vibration", tinymlops.VibrationAnomaly(rng, 100, 32, 0.3, 2)},
	}
	for _, c := range cases {
		if c.ds.Len() == 0 || c.ds.NumClasses < 2 {
			t.Fatalf("%s: empty or degenerate dataset", c.name)
		}
		if len(c.ds.Y) != c.ds.Len() {
			t.Fatalf("%s: labels out of sync", c.name)
		}
	}
	shards := tinymlops.PartitionIID(rng, cases[0].ds, 4)
	if len(shards) != 4 {
		t.Fatalf("PartitionIID returned %d shards", len(shards))
	}
	stream := tinymlops.NewDriftStream(rng, cases[0].ds, 10, tinymlops.DriftMeanShift, 0.5)
	for i := 0; i < 20; i++ {
		x, y := stream.Next()
		if len(x) != 4 || y < 0 || y > 2 {
			t.Fatalf("stream output %v, %d", x, y)
		}
	}
}

// TestDeviceAndSelectionSurface exercises profiles and policy-constrained
// selection at deploy time.
func TestDeviceAndSelectionSurface(t *testing.T) {
	profiles := tinymlops.StandardProfiles()
	if len(profiles) != 6 {
		t.Fatalf("%d profiles", len(profiles))
	}
	if _, err := tinymlops.ProfileByName("npu-board"); err != nil {
		t.Fatal(err)
	}
	rng := tinymlops.NewRNG(2)
	fleet, err := tinymlops.NewStandardFleet(tinymlops.FleetSpec{CountPerProfile: 1, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range fleet.Devices() {
		d.SetBehavior(1, 1, 0)
	}
	fleet.Tick()
	platform, err := tinymlops.NewPlatform(fleet, tinymlops.PlatformConfig{
		VendorKey: []byte("surface-test-key-0123456789abcde"), Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	ds := tinymlops.Blobs(rng, 400, 4, 2, 4)
	net := tinymlops.NewNetwork([]int{4}, tinymlops.Dense(4, 8, rng), tinymlops.ReLU(), tinymlops.Dense(8, 2, rng))
	versions, err := platform.Publish("surface", net, ds, tinymlops.DefaultOptimizationSpec(ds))
	if err != nil || len(versions) != 5 {
		t.Fatalf("published %d versions: %v", len(versions), err)
	}
	dep, err := platform.Deploy("phone-00", "surface", tinymlops.DeployConfig{
		PrepaidQueries: 1,
		Policy:         tinymlops.SelectionPolicy{Schemes: []tinymlops.Scheme{tinymlops.Ternary}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if dep.Version.Scheme != tinymlops.Ternary {
		t.Fatalf("allowlisted ternary, selected %v", dep.Version.Scheme)
	}
}

// TestRolloutSurface pins the staged-OTA facade: rollout config, wave and
// gate types, the rollout record, and Deployment.Health/Rollback.
func TestRolloutSurface(t *testing.T) {
	rng := tinymlops.NewRNG(9)
	fleet, err := tinymlops.NewStandardFleet(tinymlops.FleetSpec{CountPerProfile: 1, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range fleet.Devices() {
		d.SetBehavior(1, 1, 0)
	}
	fleet.Tick()
	platform, err := tinymlops.NewPlatform(fleet, tinymlops.PlatformConfig{
		VendorKey: []byte("surface-test-key-0123456789abcde"), Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	ds := tinymlops.Blobs(rng, 300, 4, 2, 4)
	spec := tinymlops.OptimizationSpec{Evaluate: func(n *tinymlops.Network) float64 {
		return tinymlops.Evaluate(n, ds.X, ds.Y)
	}}
	v1net := tinymlops.NewNetwork([]int{4}, tinymlops.Dense(4, 8, rng), tinymlops.ReLU(), tinymlops.Dense(8, 2, rng))
	if _, err := platform.Publish("surface-ota", v1net, ds, spec); err != nil {
		t.Fatal(err)
	}
	ids := []string{"phone-00", "edge-gateway-00"}
	if _, err := platform.DeployMany(ids, "surface-ota", tinymlops.DeployConfig{PrepaidQueries: 50}); err != nil {
		t.Fatal(err)
	}

	// v2 perturbs only the head parameters (the last dense layer's 18
	// scalars), so the update ships as a sparse delta.
	v2net := v1net.Clone()
	flat := v2net.FlatParams()
	for i := len(flat) - 18; i < len(flat); i++ {
		flat[i] += 0.5
	}
	if err := v2net.SetFlatParams(flat); err != nil {
		t.Fatal(err)
	}

	v2s, err := platform.Publish("surface-ota", v2net, ds, spec)
	if err != nil {
		t.Fatal(err)
	}

	// Staged rollout through the facade: one wave, a loose gate, a bake hook.
	res, err := platform.Rollout(v2s[0], tinymlops.RolloutConfig{
		Waves: []tinymlops.RolloutWave{{Name: "fleet", Fraction: 1.0}},
		Gate:  tinymlops.RolloutGate{MaxErrorRate: 0.5},
		Seed:  1,
		Bake: func(w tinymlops.RolloutWave, deviceIDs []string) error {
			if len(deviceIDs) != 2 {
				t.Errorf("bake saw %d devices", len(deviceIDs))
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed || res.DeltaTransfers != 2 {
		t.Fatalf("rollout result = %+v", res)
	}
	if gate := res.Waves[0].Gate; !gate.Pass {
		t.Fatalf("gate = %+v", gate)
	}

	// Deployment health and manual rollback.
	dep, _ := platform.Deployment("phone-00")
	if dep.Health().DriftAlarm {
		t.Fatal("drift alarm without a monitor")
	}
	rep, err := dep.Rollback()
	if err != nil {
		t.Fatal(err)
	}
	if rep.To.Name != "surface-ota" || rep.From.ID == rep.To.ID {
		t.Fatalf("rollback report = %+v", rep)
	}
}

// TestProtectionWrappers covers the remaining §V/§VI facade functions.
func TestProtectionWrappers(t *testing.T) {
	rng := tinymlops.NewRNG(4)
	net := tinymlops.NewNetwork([]int{4}, tinymlops.Dense(4, 8, rng), tinymlops.ReLU(), tinymlops.Dense(8, 2, rng))
	// Encryption.
	artifact, err := net.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	key := []byte("wrapper-test-key-0123456789abcde")
	em, err := tinymlops.EncryptModel(key, "m", artifact)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tinymlops.DecryptModel(key, em); err != nil {
		t.Fatal(err)
	}
	// Trigger watermark.
	ds := tinymlops.Blobs(rng, 300, 4, 2, 4)
	triggers := tinymlops.NewTriggerSet("owner", 10, []int{4}, 2)
	if err := tinymlops.EmbedTriggerWatermark(net, triggers, ds.X, ds.Y, 3, rng); err != nil {
		t.Fatal(err)
	}
	if rec := tinymlops.VerifyTriggerWatermark(net, triggers); rec < 0.5 {
		t.Fatalf("trigger recall %v", rec)
	}
	// Query detector.
	det := tinymlops.NewQueryDetector()
	det.Observe([]float32{1, 2, 3, 4})
	if det.Flagged() {
		t.Fatal("detector flagged after one query")
	}
	// Enclave.
	encl, err := tinymlops.NewEnclave("t", []byte("root-0123456789"), 2)
	if err != nil {
		t.Fatal(err)
	}
	var meas [32]byte
	rep := encl.Attest(meas, []byte("n"))
	if !tinymlops.VerifyAttestation([]byte("root-0123456789"), rep) {
		t.Fatal("attestation failed")
	}
	// Personalization wrapper.
	personal, err := tinymlops.Personalize(net, ds, tinymlops.PersonalizeConfig{
		Epochs: 1, RNG: rng,
	})
	if err != nil || personal == nil {
		t.Fatalf("personalize: %v", err)
	}
}

// TestChaosSurface pins the fault-injection facade: the fault plane with its
// federated hook and the canned chaos scenario with its audit.
func TestChaosSurface(t *testing.T) {
	// Deterministic fault profiles from the facade.
	plane := tinymlops.NewFaultPlane(tinymlops.ChaosConfig{
		Seed: 5, PDrop: 0.5, PCrash: 0.5, PDropout: 0.5, PStraggler: 0.5,
	})
	var prof tinymlops.FaultProfile = plane.Profile(1, "phone-00")
	if prof != plane.Profile(1, "phone-00") {
		t.Fatal("fault profile not deterministic")
	}
	if cf := plane.FedFaults()(1, "client-0"); cf != plane.FedFaults()(1, "client-0") {
		t.Fatal("federated fault draw not deterministic")
	}

	// The full chaos scenario with its audit, end to end but tiny.
	res, err := tinymlops.RunChaosScenario(tinymlops.ChaosScenarioConfig{
		Devices: 12, Workers: 2, Seed: 31,
		Chaos: tinymlops.ChaosConfig{Seed: 32, PDrop: 0.2, PCrash: 0.3, PChurn: 0.1},
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Audit
	if !rep.OK() || res.Converged != res.FleetSize {
		t.Fatalf("scenario: converged %d/%d, audit %v", res.Converged, res.FleetSize, rep.Violations)
	}
	if res.Fingerprint == "" {
		t.Fatal("no fingerprint")
	}
}

// TestIntegerServingSurface pins the integer-serving facade: the selection
// policy's scheme allowlist, the deployment's reported execution scheme, and
// an integer deployment splitting through the quantized boundary.
func TestIntegerServingSurface(t *testing.T) {
	rng := tinymlops.NewRNG(51)
	net := tinymlops.NewNetwork([]int{4}, tinymlops.Dense(4, 8, rng), tinymlops.ReLU(), tinymlops.Dense(8, 2, rng))

	// An int8-pinned deployment on NPU hardware reports int8 execution.
	fleet, err := tinymlops.NewStandardFleet(tinymlops.FleetSpec{CountPerProfile: 1, Seed: 51})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range fleet.Devices() {
		d.SetBehavior(1, 1, 0)
	}
	fleet.Tick()
	platform, err := tinymlops.NewPlatform(fleet, tinymlops.PlatformConfig{
		VendorKey: []byte("surface-test-key-0123456789abcde"), Seed: 51,
	})
	if err != nil {
		t.Fatal(err)
	}
	ds := tinymlops.Blobs(rng, 200, 4, 2, 4)
	if _, err := platform.Publish("surface-int", net, ds, tinymlops.OptimizationSpec{
		Schemes:  []tinymlops.Scheme{tinymlops.Int8},
		Evaluate: func(n *tinymlops.Network) float64 { return tinymlops.Evaluate(n, ds.X, ds.Y) },
	}); err != nil {
		t.Fatal(err)
	}
	policy := tinymlops.SelectionPolicy{Schemes: []tinymlops.Scheme{tinymlops.Int8}}
	dep, err := platform.Deploy("npu-board-00", "surface-int", tinymlops.DeployConfig{
		PrepaidQueries: 10, Policy: policy,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sch := dep.ExecutionScheme(); sch != tinymlops.Int8 {
		t.Fatalf("execution scheme %v, want int8", sch)
	}
	cloud := tinymlops.NewOffloadCloud()
	defer cloud.Close()
	// Integer-native deployments split through the quantized boundary codec.
	sess, err := platform.Offload("npu-board-00", tinymlops.OffloadConfig{Cloud: cloud})
	if err != nil {
		t.Fatalf("integer offload through facade: %v", err)
	}
	if _, err := sess.Infer(make([]float32, 4)); err != nil {
		t.Fatal(err)
	}
}

// TestOffloadSurface pins the edge–cloud offload facade: the split
// planner, the cloud tier, Platform.Offload sessions with their results and
// stats, the mode constants, and the chaos scenario's offload phase.
func TestOffloadSurface(t *testing.T) {
	rng := tinymlops.NewRNG(41)
	fleet, err := tinymlops.NewStandardFleet(tinymlops.FleetSpec{CountPerProfile: 1, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range fleet.Devices() {
		d.SetBehavior(1, 1, 0)
	}
	fleet.Tick()
	platform, err := tinymlops.NewPlatform(fleet, tinymlops.PlatformConfig{
		VendorKey: []byte("surface-test-key-0123456789abcde"), Seed: 41,
	})
	if err != nil {
		t.Fatal(err)
	}
	ds := tinymlops.Blobs(rng, 200, 4, 2, 4)
	spec := tinymlops.OptimizationSpec{Evaluate: func(n *tinymlops.Network) float64 {
		return tinymlops.Evaluate(n, ds.X, ds.Y)
	}}
	net := tinymlops.NewNetwork([]int{4}, tinymlops.Dense(4, 8, rng), tinymlops.ReLU(), tinymlops.Dense(8, 2, rng))
	if _, err := platform.Publish("surface-off", net, ds, spec); err != nil {
		t.Fatal(err)
	}
	if _, err := platform.Deploy("phone-00", "surface-off", tinymlops.DeployConfig{PrepaidQueries: 20}); err != nil {
		t.Fatal(err)
	}

	// The planner through the facade.
	var costs []tinymlops.LayerCost
	costs, err = net.Summary()
	if err != nil {
		t.Fatal(err)
	}
	devCaps, _ := tinymlops.ProfileByName("m4-wearable")
	cloudCaps, _ := tinymlops.ProfileByName("edge-gateway")
	var best tinymlops.SplitPlan
	best, curve, err := tinymlops.BestSplit(costs, devCaps, cloudCaps, 32, 1e6, time.Millisecond, 16)
	if err != nil || len(curve) != len(costs)+1 {
		t.Fatalf("BestSplit: %+v, %d plans, %v", best, len(curve), err)
	}

	// The live plane: cloud tier + session over the deployment.
	cloud := tinymlops.NewOffloadCloud()
	defer cloud.Close()
	sess, err := platform.Offload("phone-00", tinymlops.OffloadConfig{
		Cloud:  cloud,
		Plan:   &tinymlops.SplitPlan{Cut: 1},
		Replan: tinymlops.OffloadReplanConfig{Disabled: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	es := ds.X.Size() / ds.Len()
	out, err := sess.Infer(ds.X.Data[:es])
	if err != nil {
		t.Fatal(err)
	}
	if res := out.Split; res.Mode != tinymlops.OffloadSplit || res.Cut != 1 {
		t.Fatalf("offloaded query: %+v", res)
	}
	if tinymlops.OffloadLocal == tinymlops.OffloadSplit || tinymlops.OffloadSplit == tinymlops.OffloadFallback {
		t.Fatal("offload mode constants collide")
	}
	if st := sess.Stats(); st.Queries != 1 || st.Fallbacks != 0 {
		t.Fatalf("session stats %+v", st)
	}
	if cs := cloud.Stats(); cs.Served != 1 {
		t.Fatalf("cloud stats %+v", cs)
	}

	// The chaos scenario's offload phase through the facade.
	scen, err := tinymlops.RunChaosScenario(tinymlops.ChaosScenarioConfig{
		Devices: 12, Workers: 2, Seed: 43,
		Chaos: tinymlops.ChaosConfig{Seed: 44, PDrop: 0.3},
	})
	if err != nil {
		t.Fatal(err)
	}
	orep := scen.Offload
	if orep.Mismatches != 0 || orep.Queries == 0 {
		t.Fatalf("offload phase report %+v", orep)
	}
}

// TestVerifiedBillingSurface pins the verifiable pay-per-query facade:
// the verified-billing platform config, attestations riding the
// settlement report, TCP settlement with batch proof verification, the
// and the billing-fraud profile fields with the tamper helper.
func TestVerifiedBillingSurface(t *testing.T) {
	rng := tinymlops.NewRNG(61)
	ds := tinymlops.Blobs(rng, 300, 4, 3, 5)
	model := tinymlops.NewNetwork([]int{4},
		tinymlops.Dense(4, 8, rng), tinymlops.ReLU(), tinymlops.Dense(8, 3, rng))
	if _, err := tinymlops.Train(model, ds.X, ds.Y, tinymlops.TrainConfig{
		Epochs: 2, BatchSize: 32, Optimizer: tinymlops.SGD(0.1), RNG: rng,
	}); err != nil {
		t.Fatal(err)
	}
	fleet, err := tinymlops.NewStandardFleet(tinymlops.FleetSpec{CountPerProfile: 1, Seed: 61})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range fleet.Devices() {
		d.SetBehavior(1, 1, 0)
	}
	fleet.Tick()
	p, err := tinymlops.NewPlatform(fleet, tinymlops.PlatformConfig{
		VendorKey: []byte("surface-test-key-0123456789abcde"), Seed: 61, MinCohort: 1,
		VerifiedBilling: true, AttestationRate: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Publish("vb", model, ds, tinymlops.DefaultOptimizationSpec(ds)); err != nil {
		t.Fatal(err)
	}
	dep, err := p.Deploy("phone-00", "vb", tinymlops.DeployConfig{PrepaidQueries: 50})
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float32, 4)
	serve := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			for f := 0; f < 4; f++ {
				x[f] = ds.X.At2(i, f)
			}
			if _, err := dep.Infer(x); err != nil {
				t.Fatal(err)
			}
		}
	}
	serve(6)

	// An attested report through the facade, settled over real TCP.
	var rep tinymlops.AttestedReport
	rep, err = dep.Meter.BuildAttestedReport()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Attestations) == 0 {
		t.Fatal("rate-1 attestation produced no proofs")
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := tinymlops.ServeSettlement(l, p)
	defer srv.Close()
	rc, err := tinymlops.SettleAttestedOverTCP(srv.Addr(), rep)
	if err != nil || !rc.OK || rc.ProofsChecked == 0 {
		t.Fatalf("honest settlement: receipt %+v, %v", rc, err)
	}
	dep.Meter.Acknowledge(rc.AckSeq)

	// Billing-fraud profile fields and the tamper helper: a tampered
	// report must be rejected for a proof reason.
	serve(4)
	rep2, err := dep.Meter.BuildAttestedReport()
	if err != nil {
		t.Fatal(err)
	}
	prof := tinymlops.FaultProfile{Overclaim: true, ProofReplay: true}
	if !prof.Fraudulent() {
		t.Fatal("fraud profile not fraudulent")
	}
	eff := tinymlops.TamperAttestedReport(prof, &rep2)
	if !eff.Overclaim || !eff.Fraudulent() {
		t.Fatalf("tamper applied %+v", eff)
	}
	rc2, err := tinymlops.SettleAttestedOverTCP(srv.Addr(), rep2)
	if err != nil {
		t.Fatal(err)
	}
	if rc2.OK || !strings.Contains(rc2.Reason, "proof") {
		t.Fatalf("tampered settlement: receipt %+v", rc2)
	}
	// The chaos scenario surfaces its settlement phase.
	scen, err := tinymlops.RunChaosScenario(tinymlops.ChaosScenarioConfig{
		Devices: 12, Workers: 2, Seed: 63,
		Chaos: tinymlops.ChaosConfig{Seed: 64, POverclaim: 0.3},
	})
	if err != nil {
		t.Fatal(err)
	}
	srep := scen.Settlement
	if srep == nil || srep.Devices == 0 || len(srep.Verdicts) != srep.Devices {
		t.Fatalf("settlement phase report %+v", srep)
	}
	if srep.FraudInjected != srep.FraudCaught {
		t.Fatalf("scenario missed fraud: %+v", srep)
	}
}

// TestHierFederatedSurface pins the two-tier federated facade:
// Platform.HierFederatedUpdate trains the published line, accounts both
// tiers, and hands back the coordinator whose global is, bit for bit, the
// version it published.
func TestHierFederatedSurface(t *testing.T) {
	rng := tinymlops.NewRNG(7)
	fleet, err := tinymlops.NewStandardFleet(tinymlops.FleetSpec{CountPerProfile: 1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	platform, err := tinymlops.NewPlatform(fleet, tinymlops.PlatformConfig{
		VendorKey: []byte("surface-test-key-0123456789abcde"), Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	ds := tinymlops.Blobs(rng, 400, 4, 3, 4)
	global := tinymlops.NewNetwork([]int{4}, tinymlops.Dense(4, 8, rng), tinymlops.ReLU(), tinymlops.Dense(8, 3, rng))
	var spec tinymlops.OptimizationSpec
	if _, err := platform.Publish("surface-fed", global, ds, spec); err != nil {
		t.Fatal(err)
	}
	clients := tinymlops.MakeFederatedClients(ds, tinymlops.PartitionIID(rng, ds, 24), "api")
	hc, versions, stats, err := platform.HierFederatedUpdate("surface-fed", clients, ds, tinymlops.HierFederatedConfig{
		Config:      tinymlops.FederatedConfig{Rounds: 1, LocalEpochs: 1, LocalBatch: 8, LR: 0.1, Seed: 9},
		Aggregators: 4, SecureAgg: true,
	}, spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(hc.Cohorts) != 4 || len(stats) != 1 {
		t.Fatalf("%d cohorts, %d rounds", len(hc.Cohorts), len(stats))
	}
	if s := stats[0]; s.EdgeUplinkBytes == 0 || s.CloudUplinkBytes == 0 || s.CloudUplinkBytes >= s.EdgeUplinkBytes {
		t.Fatalf("per-tier accounting: %+v", s)
	}
	published, err := platform.Registry.Load(versions[0].ID)
	if err != nil {
		t.Fatal(err)
	}
	got, want := published.FlatParams(), hc.Global.FlatParams()
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("published weight %d differs from the coordinator's global", i)
		}
	}
}

// TestSwarmSurface pins the peer-to-peer OTA distribution facade:
// Platform.NewSwarm, the chaos scenario's swarm mode with its per-wave
// egress report, and the byte-conservation fields on the audit.
func TestSwarmSurface(t *testing.T) {
	// Platform.NewSwarm is reachable and returns a quiet coordinator.
	fleet, err := tinymlops.NewStandardFleet(tinymlops.FleetSpec{CountPerProfile: 1, Seed: 80})
	if err != nil {
		t.Fatal(err)
	}
	platform, err := tinymlops.NewPlatform(fleet, tinymlops.PlatformConfig{
		VendorKey: []byte("surface-swarm-key-0123456789abcd"), Seed: 80,
	})
	if err != nil {
		t.Fatal(err)
	}
	sw, err := platform.NewSwarm(tinymlops.SwarmOptions{ChunkBytes: 16, Seed: 81})
	if err != nil {
		t.Fatal(err)
	}
	if st := sw.Stats(); st.Transfers != 0 || sw.InFlight() != 0 {
		t.Fatalf("fresh swarm not quiet: %+v", st)
	}

	// The chaos scenario's swarm mode through the facade.
	scen, err := tinymlops.RunChaosScenario(tinymlops.ChaosScenarioConfig{
		Devices: 24, Seed: 82,
		Chaos:        tinymlops.ChaosConfig{Seed: 83, PDrop: 0.1, PCrash: 0.2, PPeerDrop: 0.2},
		SwarmRollout: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	srep := scen.Swarm
	if srep == nil {
		t.Fatal("swarm scenario produced no swarm report")
	}
	ledger := srep.Stats
	if ledger.RegistryEgressBytes+ledger.PeerBytes != ledger.DeliveredBytes || ledger.PeerBytes == 0 {
		t.Fatalf("ledger: %+v", ledger)
	}
	var total int64
	for _, wb := range srep.WaveEgress {
		total += wb.RegistryBytes + wb.PeerBytes
	}
	if len(srep.WaveEgress) == 0 || total == 0 {
		t.Fatalf("wave egress: %+v", srep.WaveEgress)
	}
	if !scen.Audit.OK() {
		t.Fatalf("audit over the swarm ledger: %v", scen.Audit.Violations)
	}
}

// TestProtectedPortableSurface pins the protected-portable facade: the
// procvm compile wrapper, the compiled-artifact kind, and an enclave sealing
// the module's canonical encoding under an attestation that verifies.
func TestProtectedPortableSurface(t *testing.T) {
	rng := tinymlops.NewRNG(6)
	net := tinymlops.NewNetwork([]int{4},
		tinymlops.Dense(4, 8, rng), tinymlops.ReLU(), tinymlops.Dense(8, 2, rng))
	mod, err := tinymlops.CompileProcVM(net, tinymlops.ProcVMCompileOptions{Name: "surface"})
	if err != nil {
		t.Fatal(err)
	}
	again, err := tinymlops.CompileProcVM(net, tinymlops.ProcVMCompileOptions{Name: "surface"})
	if err != nil || again.Digest() != mod.Digest() || mod.GasLimit == 0 {
		t.Fatalf("compile is not reproducible or left gas unpinned: %v", err)
	}
	if tinymlops.ModelKindProcVM != "procvm" {
		t.Fatalf("artifact kind %q drifted", tinymlops.ModelKindProcVM)
	}
	root := []byte("surface-root-key-0123456789abcde")
	encl, err := tinymlops.NewEnclave("surface", root, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	sealed, err := encl.Seal(mod.Encode())
	if err != nil {
		t.Fatal(err)
	}
	plain, err := encl.Unseal(sealed)
	if err != nil || string(plain) != string(mod.Encode()) {
		t.Fatalf("sealed module did not round-trip: %v", err)
	}
	if !tinymlops.VerifyAttestation(root, encl.Attest(mod.Digest(), []byte{9})) {
		t.Fatal("enclave attestation does not verify against the root")
	}
}
