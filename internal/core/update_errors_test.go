package core

import (
	"crypto/sha256"
	"errors"
	"strings"
	"testing"

	"tinymlops/internal/dataset"
	"tinymlops/internal/device"
	"tinymlops/internal/fed"
	"tinymlops/internal/nn"
	"tinymlops/internal/procvm"
	"tinymlops/internal/registry"
	"tinymlops/internal/rollout"
	"tinymlops/internal/tensor"
)

// TestUpdateErrorPaths drives every Update/Rollback failure mode through
// one table: bad targets, unmanaged deployments, missing rollback images,
// offline devices and dead batteries.
func TestUpdateErrorPaths(t *testing.T) {
	f := newRolloutFixture(t, 1)
	cases := []struct {
		name string
		run  func(t *testing.T) error
		want string
		// transient marks errors the rollout retry policy should retry.
		transient bool
	}{
		{
			name: "nil target",
			run: func(t *testing.T) error {
				dep, _ := f.p.Deployment("phone-00")
				_, err := dep.Update(nil, UpdateOptions{})
				return err
			},
			want: "nil update target",
		},
		{
			name: "unmanaged deployment",
			run: func(t *testing.T) error {
				orphan := &Deployment{DeviceID: "ghost"}
				_, err := orphan.Update(f.v2, UpdateOptions{})
				return err
			},
			want: "not platform-managed",
		},
		{
			name: "rollback with no prior image",
			run: func(t *testing.T) error {
				dep, _ := f.p.Deployment("phone-01")
				_, err := dep.Rollback()
				return err
			},
			want: "no previous image",
		},
		{
			name: "offline device",
			run: func(t *testing.T) error {
				dep, _ := f.p.Deployment("m4-wearable-00")
				dep.Device().SetNet(device.Offline)
				defer dep.Device().SetNet(device.WiFi)
				_, err := dep.Update(f.v2, UpdateOptions{})
				return err
			},
			want:      "offline",
			transient: true,
		},
		{
			name: "battery death mid-update",
			run: func(t *testing.T) error {
				dep, _ := f.p.Deployment("m7-camera-00")
				dep.Device().SetNet(device.WiFi)
				dep.Device().SetBatteryLevel(0)
				defer dep.Device().SetBatteryLevel(1)
				_, err := dep.Update(f.v2, UpdateOptions{})
				return err
			},
			want: "battery depleted",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.run(t)
			if err == nil {
				t.Fatalf("no error; want %q", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
			if got := TransientUpdateError(err); got != tc.transient {
				t.Fatalf("TransientUpdateError = %v, want %v for %q", got, tc.transient, err)
			}
		})
	}
}

// TestWatermarkedUpdateForcesFullTransfer: a per-customer watermark
// perturbs on-device weights, so the delta precondition (bit-identical
// base) fails and the update must ship the full image.
func TestWatermarkedUpdateForcesFullTransfer(t *testing.T) {
	f := newRolloutFixture(t, 1)
	dep, err := f.p.Deploy("npu-board-01", "clf", DeployConfig{
		PrepaidQueries: 1000, Watermark: "acme-corp",
	})
	if err != nil {
		t.Fatal(err)
	}
	if !dep.Watermarked() {
		t.Fatal("deployment not watermarked")
	}
	rep, err := dep.Update(f.v2, UpdateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.UsedDelta {
		t.Fatal("watermarked deployment shipped a delta")
	}
	if rep.ShipBytes != int64(f.v2.Metrics.SizeBytes) {
		t.Fatalf("shipped %d B, want the full %d B", rep.ShipBytes, f.v2.Metrics.SizeBytes)
	}
	// The updated copy carries the watermark again: it must NOT match the
	// registry artifact bit-for-bit.
	data, err := dep.Model().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if sha256.Sum256(data) == f.v2.Digest {
		t.Fatal("watermarked update produced pristine artifact bytes")
	}
}

// TestTopologyMismatchFallsBackToFull: moving to a differently-shaped
// model cannot use a weight delta; the update must ship the full image.
func TestTopologyMismatchFallsBackToFull(t *testing.T) {
	f := newRolloutFixture(t, 1)
	rng := tensor.NewRNG(33)
	wide := nn.NewNetwork([]int{4}, nn.NewDense(4, 24, rng), nn.NewReLU(), nn.NewDense(24, 3, rng))
	if _, err := nn.Train(wide, f.ds.X, f.ds.Y, nn.TrainConfig{
		Epochs: 2, BatchSize: 32, Optimizer: nn.NewSGD(0.1), RNG: rng,
	}); err != nil {
		t.Fatal(err)
	}
	v3s, err := f.p.Publish("clf", wide, f.ds, baseOnlySpec(f.ds))
	if err != nil {
		t.Fatal(err)
	}
	dep, _ := f.p.Deployment("edge-gateway-01")
	rep, err := dep.Update(v3s[0], UpdateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.UsedDelta {
		t.Fatal("topology mismatch still used a delta")
	}
	if rep.ShipBytes != int64(v3s[0].Metrics.SizeBytes) || rep.FlashBytes != rep.ShipBytes {
		t.Fatalf("report = %+v, want full-image accounting", rep)
	}
}

// TestExhaustedMeterSurvivesUpdate: an update must neither mint credit
// nor reset usage — the voucher prepays queries, not a version. The
// deployment keeps denying after the swap.
func TestExhaustedMeterSurvivesUpdate(t *testing.T) {
	f := newRolloutFixture(t, 1)
	dep, err := f.p.Deploy("m0-sensor-01", "clf", DeployConfig{PrepaidQueries: 2})
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float32, 4)
	for i := 0; i < 2; i++ {
		if _, err := dep.Infer(x); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := dep.Infer(x); !errors.Is(err, ErrQueryDenied) {
		t.Fatalf("want ErrQueryDenied, got %v", err)
	}
	voucherBefore := dep.Meter.Voucher().ID
	dep.Device().SetNet(device.WiFi)
	dep.Device().SetBatteryLevel(1)
	if _, err := dep.Update(f.v2, UpdateOptions{}); err != nil {
		t.Fatal(err)
	}
	if dep.Meter.Voucher().ID != voucherBefore {
		t.Fatal("update swapped the voucher")
	}
	if dep.Meter.Used() != 2 || dep.Meter.Remaining() != 0 {
		t.Fatalf("meter after update: used %d remaining %d", dep.Meter.Used(), dep.Meter.Remaining())
	}
	if _, err := dep.Infer(x); !errors.Is(err, ErrQueryDenied) {
		t.Fatalf("exhausted meter served a query after update: %v", err)
	}
}

// TestUpdateInterruptedInstallResumes is the core-level recovery proof:
// a mid-flash crash fails the update transiently, the running version
// stays live, and the retry resumes the half-written slot — total flashed
// bytes across both attempts equal the patch exactly, the final model is
// bit-identical to the registry artifact, and the meter never moves.
func TestUpdateInterruptedInstallResumes(t *testing.T) {
	f := newRolloutFixture(t, 1)
	dep, _ := f.p.Deployment("edge-gateway-00")
	dev := dep.Device()
	usedBefore := dep.Meter.Used()
	flashedBefore := dev.Snapshot().FlashedBytes

	// Crash the first install attempt at 60% of the flash.
	calls := 0
	dev.SetInstallInterrupter(func(token string, rem int64) float64 {
		calls++
		if calls == 1 {
			return 0.6
		}
		return 1
	})
	defer dev.SetInstallInterrupter(nil)

	_, err := dep.Update(f.v2, UpdateOptions{})
	if !errors.Is(err, device.ErrInstallInterrupted) {
		t.Fatalf("want ErrInstallInterrupted, got %v", err)
	}
	if !TransientUpdateError(err) {
		t.Fatal("interrupted install must be retryable")
	}
	if dep.Version.ID != f.v1.ID {
		t.Fatalf("crashed update moved the live version to %s", dep.Version.ID)
	}
	token, flashed, total, ok := dev.Staging()
	if !ok || !strings.HasPrefix(token, "delta:") || flashed == 0 || flashed >= total {
		t.Fatalf("staging after crash = %q %d/%d ok=%v", token, flashed, total, ok)
	}

	// Retry: selection repeats, the token matches, the slot resumes.
	rep, err := dep.Update(f.v2, UpdateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.UsedDelta {
		t.Fatal("retry abandoned the delta")
	}
	if _, _, _, ok := dev.Staging(); ok {
		t.Fatal("staging survived a completed install")
	}
	if got := dev.Snapshot().FlashedBytes - flashedBefore; got != rep.FlashBytes {
		t.Fatalf("flashed %d B across both attempts, want exactly %d (resume, not restart)", got, rep.FlashBytes)
	}
	data, err := dep.Model().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if sha256.Sum256(data) != f.v2.Digest {
		t.Fatal("recovered model diverges from the v2 artifact")
	}
	if dep.Meter.Used() != usedBefore {
		t.Fatalf("meter moved across the interrupted install: %d -> %d", usedBefore, dep.Meter.Used())
	}
}

// TestInferBatchWithPipelineModules covers the batched pre/post paths:
// normalization feeds the model, argmax postprocessing labels each row,
// and a broken postprocess marks only its own rows failed.
func TestInferBatchWithPipelineModules(t *testing.T) {
	f := newRolloutFixture(t, 1)
	means, stds := f.ds.Clone().Standardize()
	pre, err := procvm.NewBuilder("pre").Input().Normalize(means, stds).Build()
	if err != nil {
		t.Fatal(err)
	}
	post, err := procvm.NewBuilder("post").Input().Softmax().ArgMax().Build()
	if err != nil {
		t.Fatal(err)
	}
	dep, err := f.p.Deploy("phone-01", "clf", DeployConfig{
		PrepaidQueries: 1000, Pre: pre, Post: post,
	})
	if err != nil {
		t.Fatal(err)
	}
	outs := dep.InferBatch(f.inRows)
	for i, o := range outs {
		if o.Err != nil {
			t.Fatalf("row %d: %v", i, o.Err)
		}
		if o.Result.Label < 0 || o.Result.Label > 2 {
			t.Fatalf("row %d label %d", i, o.Result.Label)
		}
	}
	// Batched results must equal the serial path's labels.
	dep2, err := f.p.Deploy("npu-board-00", "clf", DeployConfig{
		PrepaidQueries: 1000, Pre: pre, Post: post,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range f.inRows {
		r, err := dep2.Infer(row)
		if err != nil {
			t.Fatal(err)
		}
		if r.Label != outs[i].Result.Label {
			t.Fatalf("row %d: serial label %d, batched %d", i, r.Label, outs[i].Result.Label)
		}
	}
	// A postprocess that keeps a vector output fails its rows.
	badPost, err := procvm.NewBuilder("bad").Input().Softmax().Build()
	if err != nil {
		t.Fatal(err)
	}
	dep3, err := f.p.Deploy("m0-sensor-00", "clf", DeployConfig{
		PrepaidQueries: 1000, Post: badPost,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range dep3.InferBatch(f.inRows[:2]) {
		if o.Err == nil {
			t.Fatal("vector-valued postprocess accepted in batch path")
		}
	}
}

// TestPublishDefaultEvaluateAndAccessors covers the Publish nil-Evaluate
// default plus the small platform/deployment accessors.
func TestPublishDefaultEvaluateAndAccessors(t *testing.T) {
	f := newRolloutFixture(t, 2)
	if f.p.Engine() == nil || f.p.Engine().Workers() != 2 {
		t.Fatalf("engine = %+v", f.p.Engine())
	}
	rng := tensor.NewRNG(55)
	net := nn.NewNetwork([]int{4}, nn.NewDense(4, 6, rng), nn.NewReLU(), nn.NewDense(6, 3, rng))
	vs, err := f.p.Publish("aux", net, f.ds, registry.OptimizationSpec{})
	if err != nil {
		t.Fatal(err)
	}
	if vs[0].Metrics.Accuracy <= 0 {
		t.Fatalf("default Evaluate not applied: %+v", vs[0].Metrics)
	}
	dep, _ := f.p.Deployment("phone-00")
	w0 := dep.CurrentWindow()
	if _, err := dep.Update(f.v2, UpdateOptions{}); err != nil {
		t.Fatal(err)
	}
	if dep.CurrentWindow() <= w0 {
		t.Fatalf("update did not roll the window: %d -> %d", w0, dep.CurrentWindow())
	}
	if dep.Watermarked() {
		t.Fatal("unwatermarked deployment claims a watermark")
	}
}

// TestFederatedRolloutArc closes the §III-D → §III-A loop: FederatedUpdate
// publishes a new base and Rollout moves the fleet onto it.
func TestFederatedRolloutArc(t *testing.T) {
	f := newRolloutFixture(t, 2)
	rng := tensor.NewRNG(77)
	shards := dataset.PartitionIID(rng, f.ds, 4)
	clients := fed.MakeClients(f.ds, shards, "fc")
	versions, stats, err := f.p.FederatedUpdate("clf", clients, f.ds, fed.Config{
		Rounds: 1, LocalEpochs: 1, LocalBatch: 32, LR: 0.05, Seed: 3,
	}, baseOnlySpec(f.ds))
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 1 || len(versions) == 0 {
		t.Fatalf("fed stats %d, versions %d", len(stats), len(versions))
	}
	res, err := f.p.Rollout(versions[0], RolloutConfig{
		Seed:        9,
		Calibration: f.ds,
		Bake: func(w rollout.Wave, ids []string) error {
			f.drive(t, ids, f.inRows, 2)
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("federated rollout did not complete: %+v", res.Waves[len(res.Waves)-1].Gate)
	}
	for _, dep := range f.p.Deployments() {
		if dep.Version.Name != "clf" {
			continue
		}
		if dep.Version.ID != versions[0].ID {
			t.Fatalf("%s still on %s after federated rollout", dep.DeviceID, dep.Version.ID)
		}
	}
}

// TestInferFailurePaths covers the serial Infer error branches: a
// preprocess that reduces to a scalar, a postprocess that keeps a vector,
// and a device that cannot power the inference.
func TestInferFailurePaths(t *testing.T) {
	f := newRolloutFixture(t, 1)
	badPre, err := procvm.NewBuilder("scalar-pre").Input().ArgMax().Build()
	if err != nil {
		t.Fatal(err)
	}
	dep, err := f.p.Deploy("phone-01", "clf", DeployConfig{PrepaidQueries: 100, Pre: badPre})
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float32, 4)
	if _, err := dep.Infer(x); err == nil || !strings.Contains(err.Error(), "must produce a vector") {
		t.Fatalf("scalar preprocess accepted: %v", err)
	}
	badPost, err := procvm.NewBuilder("vec-post").Input().Softmax().Build()
	if err != nil {
		t.Fatal(err)
	}
	dep2, err := f.p.Deploy("npu-board-00", "clf", DeployConfig{PrepaidQueries: 100, Post: badPost})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dep2.Infer(x); err == nil || !strings.Contains(err.Error(), "reduce to a scalar") {
		t.Fatalf("vector postprocess accepted: %v", err)
	}
	dep3, _ := f.p.Deployment("m0-sensor-00")
	dep3.Device().SetBatteryLevel(0)
	defer dep3.Device().SetBatteryLevel(1)
	if _, err := dep3.Infer(x); err == nil || !strings.Contains(err.Error(), "battery") {
		t.Fatalf("dead battery served a query: %v", err)
	}
	h := dep3.Health()
	if h.Errors == 0 {
		t.Fatal("failed inference missing from health")
	}
}

// TestRolloutWithFailingDevicesCoversTargetErrors exercises the platform
// rollout adapter's failure branches: an offline device fails its update
// inside the wave and is skipped by the rollback sweep.
func TestRolloutWithFailingDevicesCoversTargetErrors(t *testing.T) {
	f := newRolloutFixture(t, 2)
	down, _ := f.p.Deployment("phone-00")
	down.Device().SetNet(device.Offline)
	defer down.Device().SetNet(device.WiFi)
	res, err := f.p.Rollout(f.v2, RolloutConfig{
		Waves: []rollout.Wave{{Name: "all", Fraction: 1}},
		Gate:  rollout.Gate{MaxUpdateFailures: 12, MaxErrorRate: 0.9, MaxDriftFraction: 1, MaxLatencyIncrease: 9},
		Seed:  4,
		Bake: func(w rollout.Wave, ids []string) error {
			f.drive(t, ids, f.inRows, 1)
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("tolerant gate failed: %+v", res.Waves[0].Gate)
	}
	if res.Waves[0].Gate.UpdateFailures != 1 {
		t.Fatalf("update failures = %d, want 1 (the offline phone)", res.Waves[0].Gate.UpdateFailures)
	}
	if down.Version.ID != f.v1.ID {
		t.Fatal("offline device should have kept v1")
	}
}

// TestPlatformConfigDefaultsAndFedErrors covers the MinCohort floor and
// the federated-update error path for an unknown model line.
func TestPlatformConfigDefaultsAndFedErrors(t *testing.T) {
	fleet, err := device.NewStandardFleet(device.FleetSpec{CountPerProfile: 1, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(fleet, Config{VendorKey: vendorKey, Seed: 2}) // MinCohort 0 -> 1
	if err != nil {
		t.Fatal(err)
	}
	if p.Aggregator.MinCohort != 1 {
		t.Fatalf("MinCohort floor = %d", p.Aggregator.MinCohort)
	}
	if _, _, err := p.FederatedUpdate("no-such-line", nil, nil, fed.Config{}, registry.OptimizationSpec{}); err == nil {
		t.Fatal("federated update of an unknown line succeeded")
	}
}

// TestWatermarkCapacityClamps covers the tiny-model watermark floor: a
// 2x2 head still embeds at least 4 bits.
func TestWatermarkCapacityClamps(t *testing.T) {
	rng := tensor.NewRNG(8)
	tiny := nn.NewNetwork([]int{2}, nn.NewDense(2, 2, rng))
	if c := watermarkCapacity(tiny); c != 4 {
		t.Fatalf("tiny capacity = %d, want the floor 4", c)
	}
	noDense := nn.NewNetwork([]int{1, 8, 8}, nn.NewConv2D(1, 2, 3, 3, 1, 1, rng))
	if c := watermarkCapacity(noDense); c != 16 {
		t.Fatalf("dense-free capacity = %d, want the default 16", c)
	}
	big := nn.NewNetwork([]int{64}, nn.NewDense(64, 64, rng))
	if c := watermarkCapacity(big); c != 32 {
		t.Fatalf("big capacity = %d, want the cap 32", c)
	}
}
