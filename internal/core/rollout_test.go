package core

import (
	"reflect"
	"strings"
	"testing"

	"tinymlops/internal/dataset"
	"tinymlops/internal/device"
	"tinymlops/internal/nn"
	"tinymlops/internal/registry"
	"tinymlops/internal/rollout"
	"tinymlops/internal/tensor"
)

// rolloutFixture builds a platform with an always-online 12-device fleet,
// a trained v1 published without variants (so every device runs the same
// artifact and deltas are same-topology), all devices deployed, and a v2
// derived from v1 by fine-tuning only the head layer (a sparse update).
type rolloutFixture struct {
	p        *Platform
	ds       *dataset.Dataset
	v1, v2   *registry.ModelVersion
	inRows   [][]float32 // in-distribution bake traffic
	badRows  [][]float32 // mean-shifted bake traffic (trips the monitor)
	preByDev map[string]string
}

func baseOnlySpec(ds *dataset.Dataset) registry.OptimizationSpec {
	return registry.OptimizationSpec{Evaluate: func(n *nn.Network) float64 {
		return nn.Evaluate(n, ds.X, ds.Y)
	}}
}

func newRolloutFixture(t *testing.T, workers int) *rolloutFixture {
	t.Helper()
	rng := tensor.NewRNG(21)
	fleet, err := device.NewStandardFleet(device.FleetSpec{CountPerProfile: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range fleet.Devices() {
		d.SetNet(device.WiFi)
		d.SetCharging(true)
	}
	p, err := New(fleet, Config{VendorKey: vendorKey, Seed: 21, MinCohort: 1, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	ds := dataset.Blobs(rng, 900, 4, 3, 5)
	net := nn.NewNetwork([]int{4}, nn.NewDense(4, 16, rng), nn.NewReLU(), nn.NewDense(16, 3, rng))
	if _, err := nn.Train(net, ds.X, ds.Y, nn.TrainConfig{
		Epochs: 8, BatchSize: 32, Optimizer: nn.NewSGD(0.1).WithMomentum(0.9), RNG: rng,
	}); err != nil {
		t.Fatal(err)
	}
	v1s, err := p.Publish("clf", net, ds, baseOnlySpec(ds))
	if err != nil {
		t.Fatal(err)
	}
	// v2: fine-tune only the head — the delta covers one layer's tensors.
	v2net := net.Clone()
	head := v2net.Layers()[2].(*nn.Dense)
	for i := range head.W.Value.Data {
		head.W.Value.Data[i] += 0.01 * float32(i%7)
	}
	v2s, err := p.Publish("clf", v2net, ds, baseOnlySpec(ds))
	if err != nil {
		t.Fatal(err)
	}

	ids := make([]string, 0, fleet.Size())
	for _, d := range fleet.Devices() {
		ids = append(ids, d.ID)
	}
	deps, err := p.DeployMany(ids, "clf", DeployConfig{PrepaidQueries: 100000, Calibration: ds})
	if err != nil {
		t.Fatal(err)
	}
	f := &rolloutFixture{p: p, ds: ds, v1: v1s[0], v2: v2s[0], preByDev: make(map[string]string)}
	for i := 0; i < 40; i++ {
		row := make([]float32, 4)
		bad := make([]float32, 4)
		for c := 0; c < 4; c++ {
			row[c] = ds.X.At2(i, c)
			bad[c] = ds.X.At2(i, c) + 6
		}
		f.inRows = append(f.inRows, row)
		f.badRows = append(f.badRows, bad)
	}
	// Pre-rollout traffic establishes each device's health baseline.
	for _, dep := range deps {
		f.preByDev[dep.DeviceID] = dep.Version.ID
		for _, o := range dep.InferBatch(f.inRows) {
			if o.Err != nil {
				t.Fatal(o.Err)
			}
		}
	}
	return f
}

// drive pushes rows through each listed deployment, serially per wave so
// the traffic itself cannot introduce scheduling nondeterminism.
func (f *rolloutFixture) drive(t *testing.T, ids []string, rows [][]float32, repeats int) {
	t.Helper()
	for _, id := range ids {
		dep, ok := f.p.Deployment(id)
		if !ok {
			t.Fatalf("no deployment on %s", id)
		}
		for r := 0; r < repeats; r++ {
			for _, o := range dep.InferBatch(rows) {
				if o.Err != nil {
					t.Fatal(o.Err)
				}
			}
		}
	}
}

// runArc executes the acceptance scenario: canary bakes on healthy
// traffic and passes; the second wave bakes on drifted traffic, trips the
// gate and is rolled back.
func (f *rolloutFixture) runArc(t *testing.T) *rollout.Result {
	t.Helper()
	res, err := f.p.Rollout(f.v2, RolloutConfig{
		Waves: []rollout.Wave{
			{Name: "canary", Fraction: 0.25},
			{Name: "fleet", Fraction: 1.0},
		},
		Seed:        5,
		Calibration: f.ds,
		Bake: func(w rollout.Wave, ids []string) error {
			if w.Name == "canary" {
				f.drive(t, ids, f.inRows, 5)
			} else {
				f.drive(t, ids, f.badRows, 8)
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestRolloutArcCanaryKeepsV2CohortRollsBack is the acceptance scenario:
// publish v2 → canary passes → the fleet wave trips the drift gate → its
// devices are rolled back to v1 while canary devices keep v2, with meter
// state preserved and the same-topology update shipped as a delta.
func TestRolloutArcCanaryKeepsV2CohortRollsBack(t *testing.T) {
	f := newRolloutFixture(t, 4)

	// Meter continuity probe: any device, tracked across the whole arc.
	probe, _ := f.p.Deployment("phone-00")
	voucherBefore := probe.Meter.Voucher().ID
	usedBefore := probe.Meter.Used()

	res := f.runArc(t)
	if res.Completed {
		t.Fatal("rollout reported completion despite the failed gate")
	}
	if len(res.Waves) != 2 {
		t.Fatalf("waves = %d", len(res.Waves))
	}
	canary, fleetW := res.Waves[0], res.Waves[1]
	if !canary.Gate.Pass {
		t.Fatalf("canary gate = %+v", canary.Gate)
	}
	if fleetW.Gate.Pass {
		t.Fatalf("fleet gate = %+v", fleetW.Gate)
	}
	if fleetW.Gate.DriftAlarms == 0 || !strings.Contains(strings.Join(fleetW.Gate.Reasons, ";"), "drift") {
		t.Fatalf("gate did not fail on drift: %+v", fleetW.Gate)
	}
	if len(canary.DeviceIDs) != 3 || len(fleetW.DeviceIDs) != 9 {
		t.Fatalf("wave sizes = %d/%d", len(canary.DeviceIDs), len(fleetW.DeviceIDs))
	}

	// Canary devices keep v2; rolled-back devices are on their original v1.
	for _, id := range canary.DeviceIDs {
		dep, _ := f.p.Deployment(id)
		if dep.Version.ID != f.v2.ID {
			t.Fatalf("canary %s on %s, want v2 %s", id, dep.Version.ID, f.v2.ID)
		}
	}
	for _, id := range fleetW.DeviceIDs {
		dep, _ := f.p.Deployment(id)
		if dep.Version.ID != f.preByDev[id] {
			t.Fatalf("rolled-back %s on %s, want %s", id, dep.Version.ID, f.preByDev[id])
		}
	}

	// Same-topology update shipped as a delta, measurably below full size.
	for _, o := range append(canary.Outcomes, fleetW.Outcomes...) {
		if o.UpdateErr != "" {
			t.Fatalf("update failed on %s: %s", o.DeviceID, o.UpdateErr)
		}
		if !o.Transfer.UsedDelta {
			t.Fatalf("%s shipped a full artifact", o.DeviceID)
		}
		if o.Transfer.ShipBytes >= int64(f.v2.Metrics.SizeBytes) {
			t.Fatalf("%s delta %d B not below full %d B", o.DeviceID, o.Transfer.ShipBytes, f.v2.Metrics.SizeBytes)
		}
	}

	// Meter state survived update (and, for fleet-wave devices, rollback).
	if probe.Meter.Voucher().ID != voucherBefore {
		t.Fatal("update replaced the prepaid voucher")
	}
	if probe.Meter.Used() <= usedBefore {
		t.Fatal("meter did not keep counting across the update")
	}
}

// TestRolloutArcDeterministicAcrossWorkerCounts replays the full arc at
// two worker counts and demands identical rollout records and fleet state.
func TestRolloutArcDeterministicAcrossWorkerCounts(t *testing.T) {
	type snapshot struct {
		Res      *rollout.Result
		Versions map[string]string
		Used     map[string]uint64
	}
	run := func(workers int) snapshot {
		f := newRolloutFixture(t, workers)
		res := f.runArc(t)
		s := snapshot{Res: res, Versions: make(map[string]string), Used: make(map[string]uint64)}
		for _, dep := range f.p.Deployments() {
			s.Versions[dep.DeviceID] = dep.Version.ID
			s.Used[dep.DeviceID] = dep.Meter.Used()
		}
		return s
	}
	s1 := run(1)
	s8 := run(8)
	if !reflect.DeepEqual(s1.Res, s8.Res) {
		t.Fatalf("rollout records diverged:\n1: %+v\n8: %+v", s1.Res, s8.Res)
	}
	if !reflect.DeepEqual(s1.Versions, s8.Versions) {
		t.Fatalf("fleet versions diverged:\n1: %v\n8: %v", s1.Versions, s8.Versions)
	}
	if !reflect.DeepEqual(s1.Used, s8.Used) {
		t.Fatalf("meter state diverged:\n1: %v\n8: %v", s1.Used, s8.Used)
	}
}

// TestUpdateDeltaVsFullBytes pins the transfer accounting: a forced full
// update ships the packed artifact; the delta path ships (and flashes)
// strictly less for a head-only fine-tune, and the device's flash counter
// sees the difference.
func TestUpdateDeltaVsFullBytes(t *testing.T) {
	f := newRolloutFixture(t, 2)
	dep, _ := f.p.Deployment("edge-gateway-00")

	full, err := dep.Update(f.v2, UpdateOptions{Calibration: f.ds, ForceFull: true})
	if err != nil {
		t.Fatal(err)
	}
	if full.UsedDelta || full.ShipBytes != int64(f.v2.Metrics.SizeBytes) {
		t.Fatalf("full update report = %+v", full)
	}
	if _, err := dep.Rollback(); err != nil {
		t.Fatal(err)
	}
	if dep.Version.ID != f.v1.ID {
		t.Fatalf("rollback landed on %s", dep.Version.ID)
	}
	if _, err := dep.Rollback(); err == nil {
		t.Fatal("second rollback without an update succeeded")
	}

	flashedBefore := dep.Device().Snapshot().FlashedBytes
	del, err := dep.Update(f.v2, UpdateOptions{Calibration: f.ds})
	if err != nil {
		t.Fatal(err)
	}
	if !del.UsedDelta {
		t.Fatal("same-topology update did not use a delta")
	}
	if del.ShipBytes >= full.ShipBytes || del.FlashBytes >= full.FlashBytes {
		t.Fatalf("delta %d/%d B not below full %d/%d B",
			del.ShipBytes, del.FlashBytes, full.ShipBytes, full.FlashBytes)
	}
	if got := dep.Device().Snapshot().FlashedBytes - flashedBefore; got != del.FlashBytes {
		t.Fatalf("device flashed %d B, report says %d", got, del.FlashBytes)
	}
	// The hot-swapped model serves traffic and matches v2's predictions.
	x := make([]float32, 4)
	for c := range x {
		x[c] = f.ds.X.At2(0, c)
	}
	if _, err := dep.Infer(x); err != nil {
		t.Fatal(err)
	}
	// An update to the version already running is a content-addressed no-op.
	noop, err := dep.Update(f.v2, UpdateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if noop.ShipBytes != 0 || noop.From.ID != noop.To.ID {
		t.Fatalf("no-op report = %+v", noop)
	}
}

// TestHealthCountsFailedInferences: a version that errors after clearing
// the metering gate must look unhealthy, not idle — otherwise a rollout
// gate would promote a model that serves nothing.
func TestHealthCountsFailedInferences(t *testing.T) {
	f := newRolloutFixture(t, 1)
	dep, _ := f.p.Deployment("phone-00")
	before := dep.Health()

	// Denials count as errors.
	small, err := f.p.Deploy("phone-01", "clf", DeployConfig{PrepaidQueries: 1})
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float32, 4)
	if _, err := small.Infer(x); err != nil {
		t.Fatal(err)
	}
	if _, err := small.Infer(x); err == nil {
		t.Fatal("quota not enforced")
	}
	if h := small.Health(); h.Inferences != 1 || h.Errors != 1 {
		t.Fatalf("health after denial = %+v", h)
	}

	// Post-gate pipeline failures count too: a mixed-width batch fails
	// every row after the first without touching the meter denials.
	rows := [][]float32{make([]float32, 4), make([]float32, 7)}
	outs := dep.InferBatch(rows)
	if outs[1].Err == nil {
		t.Fatal("mixed feature widths accepted")
	}
	h := dep.Health()
	if h.Errors != before.Errors+1 {
		t.Fatalf("failed inference not in health: before %+v after %+v", before, h)
	}
}

// TestUpdateReselectsVariantPerDevice checks §III-A re-selection: with a
// full variant matrix, updating re-runs selection so heterogeneous devices
// land on different variants of the new base.
func TestUpdateReselectsVariantPerDevice(t *testing.T) {
	p, ds, _ := fixture(t, 31)
	ids := []string{"m0-sensor-00", "npu-board-00", "edge-gateway-00"}
	for _, id := range ids {
		if _, err := p.Deploy(id, "clf", DeployConfig{PrepaidQueries: 100, Calibration: ds}); err != nil {
			t.Fatal(err)
		}
	}
	rng := tensor.NewRNG(77)
	net2 := nn.NewNetwork([]int{4}, nn.NewDense(4, 16, rng), nn.NewReLU(), nn.NewDense(16, 3, rng))
	if _, err := nn.Train(net2, ds.X, ds.Y, nn.TrainConfig{
		Epochs: 6, BatchSize: 32, Optimizer: nn.NewSGD(0.1), RNG: rng,
	}); err != nil {
		t.Fatal(err)
	}
	v2s, err := p.Publish("clf", net2, ds, DefaultOptimizationSpec(ds))
	if err != nil {
		t.Fatal(err)
	}
	chosen := make(map[string]bool)
	for _, id := range ids {
		dep, _ := p.Deployment(id)
		rep, err := dep.Update(v2s[0], UpdateOptions{Calibration: ds})
		if err != nil {
			t.Fatalf("update %s: %v", id, err)
		}
		chosen[rep.To.ID] = true
		// Every chosen version belongs to the v2 family.
		if rep.To.ID != v2s[0].ID && rep.To.ParentID != v2s[0].ID {
			t.Fatalf("%s landed outside the target family: %+v", id, rep.To)
		}
	}
	if len(chosen) < 2 {
		t.Fatal("heterogeneous fleet collapsed to one variant on update")
	}
}
