package tinymlops_test

import (
	"errors"
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
		{"shapes", tinymlops.ShapeImages(rng, 40, 12, 0.1)},
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
	stream := tinymlops.NewDriftStream(rng, cases[0].ds, 10, tinymlops.DriftScale, 0.5)
	for i := 0; i < 20; i++ {
		x, y := stream.Next()
		if len(x) != 4 || y < 0 || y > 2 {
			t.Fatalf("stream output %v, %d", x, y)
		}
	}
	if !stream.Drifted() {
		t.Fatal("stream should have passed onset")
	}
}

// TestDeviceAndSelectionSurface exercises profiles and manual selection.
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
	if err != nil {
		t.Fatal(err)
	}
	d, _ := fleet.Get("phone-00")
	dec, err := tinymlops.Select(d, versions, tinymlops.DefaultSelectionPolicy())
	if err != nil {
		t.Fatal(err)
	}
	if dec.Chosen == nil || len(dec.Evaluations) != len(versions) {
		t.Fatalf("decision = %+v", dec)
	}
}

// TestLayerConstructorsAndConvPath builds a conv network purely through
// the facade and trains a step.
func TestLayerConstructorsAndConvPath(t *testing.T) {
	rng := tinymlops.NewRNG(3)
	ds := tinymlops.ShapeImages(rng, 80, 12, 0.1)
	net := tinymlops.NewNetwork([]int{1, 12, 12},
		tinymlops.Conv2D(1, 4, 3, 3, 1, 1, rng), tinymlops.ReLU(),
		tinymlops.MaxPool2D(2, 2), tinymlops.Flatten(),
		tinymlops.Dense(144, 16, rng), tinymlops.BatchNorm1D(16), tinymlops.Tanh(),
		tinymlops.Dropout(0.2, rng),
		tinymlops.Dense(16, 4, rng))
	if _, err := tinymlops.Train(net, ds.X, ds.Y, tinymlops.TrainConfig{
		Epochs: 2, BatchSize: 16, Optimizer: tinymlops.Adam(0.01), RNG: rng,
	}); err != nil {
		t.Fatal(err)
	}
	// Sigmoid and Softmax constructors compile into a valid net.
	head := tinymlops.NewNetwork([]int{4}, tinymlops.Dense(4, 2, rng), tinymlops.Sigmoid(), tinymlops.Softmax())
	if out := head.Predict(tinymlops.NewTensor(1, 4)); out.Dim(1) != 2 {
		t.Fatalf("head output %v", out.Shape())
	}
}

// TestRolloutSurface pins the staged-OTA facade: rollout config/result
// types, Deployment.Update/Rollback/Health, and the weight-delta codec.
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

	// The delta codec round-trips through the facade.
	delta, err := tinymlops.EncodeModelDelta(v1net, v2net)
	if err != nil {
		t.Fatal(err)
	}
	patched, err := tinymlops.ApplyModelDelta(v1net, delta)
	if err != nil {
		t.Fatal(err)
	}
	got, want := patched.FlatParams(), v2net.FlatParams()
	if len(got) != len(want) {
		t.Fatalf("patched params %d != %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("patched param %d = %v, want %v", i, got[i], want[i])
		}
	}
	cost, err := tinymlops.CostOfModelDelta(delta, 32)
	if err != nil {
		t.Fatal(err)
	}
	if cost.ChangedParams != 18 {
		t.Fatalf("delta cost = %+v", cost)
	}

	v2s, err := platform.Publish("surface-ota", v2net, ds, spec)
	if err != nil {
		t.Fatal(err)
	}

	// Staged rollout through the facade: one wave, default gate, no bake.
	var waves []tinymlops.RolloutWave = tinymlops.DefaultRolloutWaves()
	if len(waves) != 3 {
		t.Fatalf("default waves = %v", waves)
	}
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
	var rr *tinymlops.RolloutResult = res
	if !rr.Completed || rr.DeltaTransfers != 2 {
		t.Fatalf("rollout result = %+v", rr)
	}
	var wr tinymlops.WaveResult = rr.Waves[0]
	var gd tinymlops.GateDecision = wr.Gate
	if !gd.Pass {
		t.Fatalf("gate = %+v", gd)
	}

	// Deployment health, manual rollback and update report types.
	dep, _ := platform.Deployment("phone-00")
	var h tinymlops.DeviceHealth = dep.Health()
	if h.DriftAlarm {
		t.Fatal("drift alarm without a monitor")
	}
	var rep *tinymlops.UpdateReport
	if rep, err = dep.Rollback(); err != nil {
		t.Fatal(err)
	}
	if rep.To.Name != "surface-ota" || rep.From.ID == rep.To.ID {
		t.Fatalf("rollback report = %+v", rep)
	}
	if _, err := dep.Update(v2s[0], tinymlops.UpdateOptions{ForceFull: true}); err != nil {
		t.Fatal(err)
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
		Epochs: 1, BatchSize: 16, LR: 0.05, RNG: rng,
	})
	if err != nil || personal == nil {
		t.Fatalf("personalize: %v", err)
	}
}

// TestChaosSurface pins the fault-injection and audit facade: the fault
// plane, the retry policy, the invariant auditor and the canned chaos
// scenario, all reached through re-exports only.
func TestChaosSurface(t *testing.T) {
	// Deterministic fault profiles from the facade.
	plane := tinymlops.NewFaultPlane(tinymlops.ChaosConfig{
		Seed: 5, PDrop: 0.5, PCrash: 0.5, PDropout: 0.5, PStraggler: 0.5,
	})
	var prof tinymlops.FaultProfile = plane.Profile(1, "phone-00")
	if prof != plane.Profile(1, "phone-00") {
		t.Fatal("fault profile not deterministic")
	}
	var cf tinymlops.ClientFault = plane.FedFaults()(1, "client-0")
	_ = cf

	// Retry policy with deterministic backoff.
	pol := tinymlops.RetryPolicy{Attempts: 3, BaseBackoff: 0}
	calls := 0
	rr, err := tinymlops.Retry(pol, tinymlops.TransientUpdateError, func(int) error {
		calls++
		if calls < 2 {
			return tinymlops.ErrDeviceOffline
		}
		return nil
	})
	if err != nil || rr.Attempts != 2 {
		t.Fatalf("retry = %+v, %v", rr, err)
	}
	if tinymlops.TransientUpdateError(tinymlops.ErrInstallInterrupted) != true {
		t.Fatal("interrupted install must be transient")
	}
	if a, b := tinymlops.SeedForID(1, 2, "x"), tinymlops.SeedForID(1, 2, "y"); a == b {
		t.Fatal("SeedForID collision")
	}

	// The full chaos scenario plus the auditor, end to end but tiny.
	res, err := tinymlops.RunChaosScenario(tinymlops.ChaosScenarioConfig{
		Devices: 12, Workers: 2, Seed: 31,
		Chaos: tinymlops.ChaosConfig{Seed: 32, PDrop: 0.2, PCrash: 0.3, PChurn: 0.1},
	})
	if err != nil {
		t.Fatal(err)
	}
	var rep *tinymlops.AuditReport = res.Audit
	if !rep.OK() || res.Converged != res.FleetSize {
		t.Fatalf("scenario: converged %d/%d, audit %v", res.Converged, res.FleetSize, rep.Violations)
	}
	if res.Fingerprint == "" {
		t.Fatal("no fingerprint")
	}
	// The auditor is callable directly against any platform too.
	fleet, err := tinymlops.NewStandardFleet(tinymlops.FleetSpec{CountPerProfile: 1, Seed: 33})
	if err != nil {
		t.Fatal(err)
	}
	p, err := tinymlops.NewPlatform(fleet, tinymlops.PlatformConfig{
		VendorKey: []byte("surface-test-key-0123456789abcde"), Seed: 33,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep := tinymlops.AuditPlatform(p, tinymlops.AuditConfig{Deep: true}); !rep.OK() {
		t.Fatalf("empty platform fails audit: %v", rep.Violations)
	}
}

// TestIntegerServingSurface pins the integer-serving facade: QModel with
// its batched scratch path, the selection policy's scheme allowlist, the
// deployment's reported execution scheme, and the offload refusal
// sentinel — all reached through re-exports only.
func TestIntegerServingSurface(t *testing.T) {
	rng := tinymlops.NewRNG(51)
	net := tinymlops.NewNetwork([]int{4}, tinymlops.Dense(4, 8, rng), tinymlops.ReLU(), tinymlops.Dense(8, 2, rng))

	// QModel + QScratch through the facade, bit-identical to Predict.
	var qm *tinymlops.QModel
	qm, err := tinymlops.Quantize(net, tinymlops.Int8)
	if err != nil {
		t.Fatal(err)
	}
	var scratch *tinymlops.QScratch = tinymlops.NewQScratch()
	in := tinymlops.FromSlice([]float32{1, -2, 0.5, 3, 0, 0, -1, 2}, 2, 4)
	got := qm.ForwardBatch(in, scratch)
	want := qm.Predict(in)
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("ForwardBatch diverged from Predict at %d", i)
		}
	}

	// An int8-pinned deployment on NPU hardware reports int8 execution
	// and refuses to offload.
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
	var sch tinymlops.Scheme = dep.ExecutionScheme()
	if sch != tinymlops.Int8 {
		t.Fatalf("execution scheme %v, want int8", sch)
	}
	cloud := tinymlops.NewOffloadCloud(tinymlops.OffloadCloudConfig{MaxBatch: 4})
	cloud.Start()
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
// planner, the cloud tier, Platform.Offload sessions with their result
// and stats types, the mode constants, the error sentinels, and the
// chaos scenario's offload phase.
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
	cloud := tinymlops.NewOffloadCloud(tinymlops.OffloadCloudConfig{MaxBatch: 8})
	cloud.Start()
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
	var out tinymlops.OffloadOutcome
	out, err = sess.Infer(ds.X.Data[:es])
	if err != nil {
		t.Fatal(err)
	}
	var res tinymlops.OffloadResult = out.Split
	var mode tinymlops.OffloadMode = res.Mode
	if mode != tinymlops.OffloadSplit || res.Cut != 1 {
		t.Fatalf("offloaded query: %+v", res)
	}
	if tinymlops.OffloadLocal == tinymlops.OffloadSplit || tinymlops.OffloadSplit == tinymlops.OffloadFallback {
		t.Fatal("offload mode constants collide")
	}
	var st tinymlops.OffloadStats = sess.Stats()
	if st.Split != 1 {
		t.Fatalf("session stats %+v", st)
	}
	var cs tinymlops.OffloadCloudStats = cloud.Stats()
	if cs.Served != 1 {
		t.Fatalf("cloud stats %+v", cs)
	}
	var cond tinymlops.OffloadConditions
	cond.BandwidthBps = 1 // the type is addressable and field-complete
	_ = cond
	if tinymlops.ErrOffloadShed == nil || tinymlops.ErrOffloadStale == nil {
		t.Fatal("offload error sentinels missing")
	}

	// The chaos scenario's offload phase through the facade.
	scen, err := tinymlops.RunChaosScenario(tinymlops.ChaosScenarioConfig{
		Devices: 12, Workers: 2, Seed: 43,
		Chaos:          tinymlops.ChaosConfig{Seed: 44, PDrop: 0.3},
		OffloadQueries: 2, OffloadRounds: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	var orep *tinymlops.OffloadReport = scen.Offload
	if orep == nil || orep.Mismatches != 0 || orep.Queries == 0 {
		t.Fatalf("offload phase report %+v", orep)
	}
}

// TestVerifiedBillingSurface pins the verifiable pay-per-query facade:
// the verified-billing platform config, attestations riding the
// settlement report, TCP settlement with batch proof verification, the
// billing-fraud profile fields with the tamper helper, and the batch
// verifier — all reached through re-exports only.
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
	var atts []tinymlops.Attestation = rep.Attestations
	if len(atts) == 0 {
		t.Fatal("rate-1 attestation produced no proofs")
	}
	var proof tinymlops.MatMulProof
	if err := proof.UnmarshalBinary(atts[0].Proof); err != nil {
		t.Fatalf("attestation carries an undecodable proof: %v", err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := tinymlops.ServeSettlement(l, p)
	defer srv.Close()
	var rc tinymlops.SettlementReceipt
	rc, err = tinymlops.SettleAttestedOverTCP(srv.Addr(), rep)
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
	if tinymlops.ErrProofInvalid == nil {
		t.Fatal("ErrProofInvalid sentinel missing")
	}

	// The batch verifier: the platform's own, plus a standalone one that
	// rejects claims against an unprepared class.
	var bv *tinymlops.BatchVerifier = p.BatchVerifier()
	if bv == nil {
		t.Fatal("verified platform exposes no batch verifier")
	}
	standalone := tinymlops.NewBatchVerifier(nil)
	results, _, err := standalone.VerifyBatch([]tinymlops.BatchItem{
		{ClassID: "ghost", A: []int32{1}, M: 1, C: []int64{1}, Proof: &proof},
	})
	if err != nil {
		t.Fatal(err)
	}
	var res tinymlops.BatchResult = results[0]
	if res.OK || res.Err == nil {
		t.Fatalf("unprepared class verified: %+v", res)
	}

	// The chaos scenario surfaces its settlement phase.
	scen, err := tinymlops.RunChaosScenario(tinymlops.ChaosScenarioConfig{
		Devices: 12, Workers: 2, Seed: 63,
		Chaos: tinymlops.ChaosConfig{Seed: 64, POverclaim: 0.3},
	})
	if err != nil {
		t.Fatal(err)
	}
	var srep *tinymlops.SettlementPhaseReport = scen.Settlement
	if srep == nil || srep.Devices == 0 {
		t.Fatalf("settlement phase report %+v", srep)
	}
	var vd tinymlops.SettleVerdict = srep.Verdicts[0]
	_ = vd
	if srep.FraudInjected != srep.FraudCaught {
		t.Fatalf("scenario missed fraud: %+v", srep)
	}
}

// TestInt4AndBenchSurface pins the packed-int4 kernel surface (packing
// codec, packed QTensor storage form, the SWAR matmul) and the benchmark
// trajectory report types — all reached through re-exports only.
func TestInt4AndBenchSurface(t *testing.T) {
	// Packing codec: round trip, canonical rejection.
	codes := []int8{-8, 7, 0, 3, -1}
	packed, err := tinymlops.PackInt4(codes)
	if err != nil {
		t.Fatal(err)
	}
	if len(packed) != tinymlops.Int4PackedLen(len(codes)) {
		t.Fatalf("packed %d bytes, want %d", len(packed), tinymlops.Int4PackedLen(len(codes)))
	}
	back, err := tinymlops.UnpackInt4(packed, len(codes))
	if err != nil {
		t.Fatal(err)
	}
	for i := range codes {
		if back[i] != codes[i] {
			t.Fatalf("code %d: %d != %d", i, back[i], codes[i])
		}
	}
	if _, err := tinymlops.UnpackInt4(packed[:1], len(codes)); err == nil {
		t.Fatal("truncated buffer decoded")
	}
	if _, err := tinymlops.PackInt4([]int8{8}); err == nil {
		t.Fatal("out-of-range code packed")
	}

	// MatMulInt4 vs a naive scalar reference, exercising both nibbles.
	const m, k, n = 2, 3, 5
	a := []int8{1, -2, 3, 0, 5, -6}
	w := []int8{1, -8, 7, 0, 2, -1, 3, 4, -5, 6, 0, -7, 1, 2, -3}
	bPacked, err := tinymlops.PackInt4Matrix(w, k, n)
	if err != nil {
		t.Fatal(err)
	}
	rows := []float32{0.5, 2}
	cols := []float32{1, 0.25, 3, 0.5, 2}
	got := make([]float32, m*n)
	tinymlops.MatMulInt4(got, a, bPacked, m, k, n, rows, cols)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var sum int32
			for p := 0; p < k; p++ {
				sum += int32(a[i*k+p]) * int32(w[p*n+j])
			}
			want := float32(sum) * rows[i] * cols[j]
			if got[i*n+j] != want {
				t.Fatalf("MatMulInt4[%d,%d] = %g, want %g", i, j, got[i*n+j], want)
			}
		}
	}
	// MatMulInt4LHS: the same codes as a packed [3,2] left operand
	// against an int8 [2,3] right operand, vs the naive reference.
	wPacked, err := tinymlops.PackInt4Matrix(w[:6], 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	lhsGot := make([]float32, 3*3)
	ones := []float32{1, 1, 1}
	tinymlops.MatMulInt4LHS(lhsGot, wPacked, a[:6], 3, 2, 3, ones, ones)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			var sum int32
			for p := 0; p < 2; p++ {
				sum += int32(w[i*2+p]) * int32(a[p*3+j])
			}
			if lhsGot[i*3+j] != float32(sum) {
				t.Fatalf("MatMulInt4LHS[%d,%d] = %g, want %d", i, j, lhsGot[i*3+j], sum)
			}
		}
	}

	// Packed QTensor storage form through the facade.
	rng := tinymlops.NewRNG(77)
	var qt *tinymlops.QTensor
	qt, err = tinymlops.QuantizeMatrix(tinymlops.FromSlice(randRow(rng, 12), 3, 4), tinymlops.Int4)
	if err != nil {
		t.Fatal(err)
	}
	ref := qt.Dequantize()
	if err := qt.PackInt4(); err != nil {
		t.Fatal(err)
	}
	if !qt.IsPacked() {
		t.Fatal("PackInt4 left the tensor unpacked")
	}
	packedDeq := qt.Dequantize()
	for i := range ref.Data {
		if ref.Data[i] != packedDeq.Data[i] {
			t.Fatalf("packed dequantize diverged at %d", i)
		}
	}

	// Bench trajectory types: a fabricated slowdown must trip the gate.
	base := &tinymlops.BenchReport{Area: "surface", Entries: []tinymlops.BenchEntry{
		{Name: "Hot", Iters: 100, NsPerOp: 100, AllocsPerOp: 0},
	}}
	cur := &tinymlops.BenchReport{Area: "surface", Entries: []tinymlops.BenchEntry{
		{Name: "Hot", Iters: 100, NsPerOp: 200, AllocsPerOp: 1},
	}}
	regs := tinymlops.DiffBenchReports(base, cur, 0.25)
	if len(regs) != 2 {
		t.Fatalf("want ns/op + allocs/op regressions, got %v", regs)
	}
	var reg tinymlops.BenchRegression = regs[0]
	if reg.String() == "" {
		t.Fatal("regression renders empty")
	}
	if tinymlops.DiffBenchReports(base, base, 0.25) != nil {
		t.Fatal("identical reports regressed")
	}
}

// randRow fills a float32 slice from the facade RNG.
func randRow(rng *tinymlops.RNG, n int) []float32 {
	out := make([]float32, n)
	for i := range out {
		out[i] = rng.NormFloat32()
	}
	return out
}

// TestHierFederatedSurface pins the two-tier federated facade: the
// hierarchical coordinator, the edge aggregator's masked accumulator and
// the per-tier round accounting, all reached through re-exports only.
func TestHierFederatedSurface(t *testing.T) {
	rng := tinymlops.NewRNG(7)
	ds := tinymlops.Blobs(rng, 400, 4, 3, 4)
	shards := tinymlops.PartitionIID(rng, ds, 24)
	clients := tinymlops.MakeFederatedClients(ds, shards, "api")
	global := tinymlops.NewNetwork([]int{4}, tinymlops.Dense(4, 8, rng), tinymlops.ReLU(), tinymlops.Dense(8, 3, rng))
	var cfg tinymlops.HierFederatedConfig
	cfg.Rounds = 1
	cfg.LocalEpochs = 1
	cfg.LocalBatch = 8
	cfg.LR = 0.1
	cfg.Seed = 9
	cfg.Aggregators = 4
	cfg.SecureAgg = true
	hc, err := tinymlops.NewHierFederatedCoordinator(global, clients, ds.X, ds.Y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var cohorts []*tinymlops.FederatedCohort
	for _, co := range hc.Cohorts {
		cohorts = append(cohorts, co)
	}
	if len(cohorts) != 4 {
		t.Fatalf("%d cohorts", len(cohorts))
	}
	var s tinymlops.RoundStats
	if s, err = hc.RunRound(); err != nil {
		t.Fatal(err)
	}
	if s.EdgeUplinkBytes == 0 || s.CloudUplinkBytes == 0 || s.CloudUplinkBytes >= s.EdgeUplinkBytes {
		t.Fatalf("per-tier accounting: %+v", s)
	}
	// The edge accumulator type is reachable and usable directly.
	var agg *tinymlops.EdgeAggregator
	agg, err = tinymlops.NewEdgeAggregator("api", tinymlops.NewPairwiseSeeds(rng, 2), 3)
	if err != nil {
		t.Fatal(err)
	}
	if agg.Received() != 0 {
		t.Fatal("fresh aggregator non-empty")
	}
}

// TestSwarmSurface pins the peer-to-peer OTA distribution facade: the
// chunk manifest codec with its typed errors, Platform.NewSwarm, the
// chaos scenario's swarm mode with its per-wave egress report, and the
// byte-conservation fields on the audit.
func TestSwarmSurface(t *testing.T) {
	// Chunk codec round trip.
	blob := []byte("swarm-surface-artifact-0123456789")
	m, err := tinymlops.BuildChunkManifest("full:surface", blob, 8)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := m.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	dec, err := tinymlops.UnmarshalChunkManifest(enc)
	if err != nil || dec.NumChunks() != m.NumChunks() || dec.TotalBytes != int64(len(blob)) {
		t.Fatalf("manifest round trip: %+v (%v)", dec, err)
	}
	ra := tinymlops.NewChunkReassembler(dec)
	for i := 0; i < dec.NumChunks(); i++ {
		s, e := dec.ChunkSpan(i)
		if err := ra.AddChunk(i, blob[s:e]); err != nil {
			t.Fatal(err)
		}
		if err := ra.AddChunk(i, blob[s:e]); !errors.Is(err, tinymlops.ErrDuplicateChunk) {
			t.Fatalf("duplicate chunk error: %v", err)
		}
	}
	out, err := ra.Assemble()
	if err != nil || string(out) != string(blob) {
		t.Fatalf("assembly diverged: %q (%v)", out, err)
	}
	corrupt := append([]byte(nil), blob[:8]...)
	corrupt[0] ^= 0xff
	if err := tinymlops.NewChunkReassembler(dec).AddChunk(0, corrupt); !errors.Is(err, tinymlops.ErrChunkHashMismatch) {
		t.Fatalf("corrupt chunk error: %v", err)
	}
	if _, err := tinymlops.UnmarshalChunkManifest([]byte("nope")); !errors.Is(err, tinymlops.ErrBadManifest) {
		t.Fatalf("bad manifest error: %v", err)
	}

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
	var drop tinymlops.SwarmDropFunc // nil = no injected peer loss
	var sw *tinymlops.Swarm
	sw, err = platform.NewSwarm(tinymlops.SwarmOptions{ChunkBytes: 16, Seed: 81, PeerDrop: drop})
	if err != nil {
		t.Fatal(err)
	}
	var st tinymlops.SwarmStats = sw.Stats()
	if st.Transfers != 0 || sw.InFlight() != 0 {
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
	var srep *tinymlops.SwarmReport = scen.Swarm
	if srep == nil {
		t.Fatal("swarm scenario produced no swarm report")
	}
	ledger := srep.Stats
	if ledger.RegistryEgressBytes+ledger.PeerBytes != ledger.DeliveredBytes || ledger.PeerBytes == 0 {
		t.Fatalf("ledger: %+v", ledger)
	}
	var total int64
	for _, wb := range srep.WaveEgress {
		var one tinymlops.SwarmWaveBytes = wb
		total += one.RegistryBytes + one.PeerBytes
	}
	if len(srep.WaveEgress) == 0 || total == 0 {
		t.Fatalf("wave egress: %+v", srep.WaveEgress)
	}
	if !scen.Audit.SwarmChecked || scen.Audit.SwarmDeliveredBytes != ledger.DeliveredBytes {
		t.Fatalf("audit swarm fields: %+v", scen.Audit)
	}

	// The typed delta-fallback errors are distinct, exported sentinels.
	if tinymlops.ErrDeltaBaseMissing == nil || tinymlops.ErrArtifactMissing == nil ||
		errors.Is(tinymlops.ErrDeltaBaseMissing, tinymlops.ErrArtifactMissing) {
		t.Fatal("delta fallback sentinels miswired")
	}
}

// TestProtectedPortableSurface pins the protected-portable facade: the
// procvm module/runtime/capability re-exports, the compile and codec
// wrappers, the artifact-kind constants, and the enclave session API —
// all reached through the root package only.
func TestProtectedPortableSurface(t *testing.T) {
	rng := tinymlops.NewRNG(6)
	net := tinymlops.NewNetwork([]int{4},
		tinymlops.Dense(4, 8, rng), tinymlops.ReLU(), tinymlops.Dense(8, 2, rng))
	mod, err := tinymlops.CompileProcVM(net, tinymlops.ProcVMCompileOptions{Name: "surface"})
	if err != nil {
		t.Fatal(err)
	}
	var m *tinymlops.ProcVMModule = mod
	dec, err := tinymlops.DecodeProcVMModule(m.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if dec.Digest() != m.Digest() {
		t.Fatal("module digest unstable across the facade codec")
	}
	var rt *tinymlops.ProcVMRuntime = tinymlops.NewProcVMRuntime(m.Caps)
	rt.MaxGas = m.GasLimit
	x := []float32{1, -2, 3, -4}
	res, err := rt.Run(dec, x)
	if err != nil {
		t.Fatal(err)
	}
	if res.GasUsed != m.GasLimit {
		t.Fatalf("gas %d != pinned limit %d", res.GasUsed, m.GasLimit)
	}
	// The metering and capability sentinels.
	starved := tinymlops.NewProcVMRuntime(m.Caps)
	starved.MaxGas = 1
	if _, err := starved.Run(dec, x); !errors.Is(err, tinymlops.ErrProcVMOutOfGas) {
		t.Fatalf("starved run: %v, want ErrProcVMOutOfGas", err)
	}
	denied := tinymlops.NewProcVMRuntime(tinymlops.ProcVMCapNone)
	if _, err := denied.Run(dec, x); !errors.Is(err, tinymlops.ErrProcVMCapabilityDenied) {
		t.Fatalf("ungranted run: %v, want ErrProcVMCapabilityDenied", err)
	}
	var caps tinymlops.ProcVMCapability = tinymlops.ProcVMCapSensor | tinymlops.ProcVMCapNetwork | tinymlops.ProcVMCapStorage
	if caps == tinymlops.ProcVMCapNone {
		t.Fatal("capability constants collapsed")
	}
	// The registry artifact kinds.
	if tinymlops.ModelKindNetwork != "" || tinymlops.ModelKindProcVM != "procvm" {
		t.Fatalf("artifact kinds %q/%q drifted", tinymlops.ModelKindNetwork, tinymlops.ModelKindProcVM)
	}
	// The enclave session: sealed load, attestable measurement, and the
	// loaded module running bit-identical to the one that was sealed.
	root := []byte("surface-root-key-0123456789abcde")
	encl, err := tinymlops.NewEnclave("surface", root, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	sess := tinymlops.NewEnclaveSession(encl)
	sealed, err := encl.Seal(m.Encode())
	if err != nil {
		t.Fatal(err)
	}
	meas, err := sess.LoadSealedModule("m", sealed)
	if err != nil {
		t.Fatal(err)
	}
	var rep tinymlops.EnclaveReport
	if rep, err = sess.Attest("m", []byte{9}); err != nil {
		t.Fatal(err)
	}
	if !tinymlops.VerifyAttestation(root, rep) || rep.Measurement != meas {
		t.Fatal("session attestation does not verify against the root")
	}
	inside, err := sess.Module("m")
	if err != nil {
		t.Fatal(err)
	}
	out, err := rt.Run(inside, x)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out.Output.Vec {
		if math.Float32bits(v) != math.Float32bits(res.Output.Vec[i]) {
			t.Fatalf("enclave output %d diverged from the plain runtime", i)
		}
	}
	// Offload accepts a caller-owned session.
	_ = tinymlops.OffloadConfig{Enclave: sess}
}
