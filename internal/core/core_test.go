package core

import (
	"errors"
	"maps"
	"net"
	"strings"
	"testing"

	"tinymlops/internal/dataset"
	"tinymlops/internal/device"
	"tinymlops/internal/fed"
	"tinymlops/internal/ipprot"
	"tinymlops/internal/metering"
	"tinymlops/internal/nn"
	"tinymlops/internal/procvm"
	"tinymlops/internal/quant"
	"tinymlops/internal/registry"
	"tinymlops/internal/tensor"
)

var vendorKey = []byte("vendor-master-key-0123456789abcdef")

// fixture builds a platform with a trained model published and an
// always-online fleet.
func fixture(t *testing.T, seed uint64) (*Platform, *dataset.Dataset, []*registry.ModelVersion) {
	t.Helper()
	rng := tensor.NewRNG(seed)
	fleet, err := device.NewStandardFleet(device.FleetSpec{CountPerProfile: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range fleet.Devices() {
		d.SetNet(device.WiFi)
		d.SetCharging(true)
	}
	p, err := New(fleet, Config{VendorKey: vendorKey, Seed: seed, MinCohort: 1})
	if err != nil {
		t.Fatal(err)
	}
	ds := dataset.Blobs(rng, 900, 4, 3, 5)
	net := nn.NewNetwork([]int{4}, nn.NewDense(4, 16, rng), nn.NewReLU(), nn.NewDense(16, 3, rng))
	if _, err := nn.Train(net, ds.X, ds.Y, nn.TrainConfig{
		Epochs: 10, BatchSize: 32, Optimizer: nn.NewSGD(0.1).WithMomentum(0.9), RNG: rng,
	}); err != nil {
		t.Fatal(err)
	}
	versions, err := p.Publish("clf", net, ds, DefaultOptimizationSpec(ds))
	if err != nil {
		t.Fatal(err)
	}
	return p, ds, versions
}

func TestNewValidatesKey(t *testing.T) {
	fleet := device.NewFleet()
	if _, err := New(fleet, Config{VendorKey: []byte("short")}); err == nil {
		t.Fatal("short vendor key accepted")
	}
}

func TestPublishCreatesVariantMatrix(t *testing.T) {
	p, _, versions := fixture(t, 1)
	if len(versions) != 5 { // base + 4 schemes
		t.Fatalf("published %d versions", len(versions))
	}
	if got := p.Registry.Variants(versions[0].ID); versions[0].ParentID != "" || len(got) != 4 {
		t.Fatalf("base %s has %d variants, want 4", versions[0].ID, len(got))
	}
}

func TestDeployAndInfer(t *testing.T) {
	p, ds, _ := fixture(t, 2)
	dep, err := p.Deploy("phone-00", "clf", DeployConfig{
		PrepaidQueries: 50,
		Calibration:    ds,
	})
	if err != nil {
		t.Fatal(err)
	}
	if dep.Version == nil || dep.Meter.Remaining() != 50 {
		t.Fatalf("deployment = %+v", dep)
	}
	x := make([]float32, 4)
	for f := 0; f < 4; f++ {
		x[f] = ds.X.At2(0, f)
	}
	res, err := dep.Infer(x)
	if err != nil {
		t.Fatal(err)
	}
	if res.Latency <= 0 {
		t.Fatalf("result = %+v", res)
	}
	if res.Label != ds.Y[0] {
		t.Logf("label %d vs truth %d (model may err on one point)", res.Label, ds.Y[0])
	}
	// The download was charged to the device.
	if dep.Device().Snapshot().RxBytes == 0 {
		t.Fatal("model shipment not charged to the radio")
	}
}

func TestMeteringDeniesAfterQuota(t *testing.T) {
	p, ds, _ := fixture(t, 3)
	dep, err := p.Deploy("edge-gateway-00", "clf", DeployConfig{PrepaidQueries: 5})
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float32, 4)
	for i := 0; i < 5; i++ {
		for f := 0; f < 4; f++ {
			x[f] = ds.X.At2(i, f)
		}
		if _, err := dep.Infer(x); err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}
	if _, err := dep.Infer(x); !errors.Is(err, ErrQueryDenied) {
		t.Fatalf("6th query error = %v", err)
	}
	if dep.Device().Snapshot().DeniedQueries != 1 {
		t.Fatal("denial not counted on the device")
	}
}

func TestDriftMonitorFlagsShiftedInputs(t *testing.T) {
	p, ds, _ := fixture(t, 4)
	dep, err := p.Deploy("phone-01", "clf", DeployConfig{
		PrepaidQueries: 10000, Calibration: ds,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := tensor.NewRNG(99)
	x := make([]float32, 4)
	// In-distribution queries: no alarm.
	for i := 0; i < 300; i++ {
		r := rng.Intn(ds.Len())
		for f := 0; f < 4; f++ {
			x[f] = ds.X.At2(r, f)
		}
		res, err := dep.Infer(x)
		if err != nil {
			t.Fatal(err)
		}
		if res.DriftAlarm {
			t.Fatalf("false drift alarm at query %d", i)
		}
	}
	// Shifted queries: alarm within a few hundred.
	alarmed := false
	for i := 0; i < 400 && !alarmed; i++ {
		r := rng.Intn(ds.Len())
		for f := 0; f < 4; f++ {
			x[f] = ds.X.At2(r, f) + 6
		}
		res, err := dep.Infer(x)
		if err != nil {
			t.Fatal(err)
		}
		alarmed = res.DriftAlarm
	}
	if !alarmed {
		t.Fatal("drift not detected after mean shift")
	}
}

func TestTelemetryFlowsToAggregator(t *testing.T) {
	p, ds, _ := fixture(t, 5)
	dep, err := p.Deploy("m7-camera-00", "clf", DeployConfig{PrepaidQueries: 1000, Calibration: ds})
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float32, 4)
	for i := 0; i < 40; i++ {
		for f := 0; f < 4; f++ {
			x[f] = ds.X.At2(i, f)
		}
		if _, err := dep.Infer(x); err != nil {
			t.Fatal(err)
		}
	}
	records, bytes, err := p.SyncTelemetry()
	if err != nil {
		t.Fatal(err)
	}
	if records == 0 || bytes == 0 {
		t.Fatalf("telemetry did not flow: %d records, %d bytes", records, bytes)
	}
	sum, err := p.Aggregator.Summarize("cortex-m7")
	if err != nil {
		t.Fatal(err)
	}
	if sum.Inferences != 40 || sum.MeanLatency <= 0 {
		t.Fatalf("cohort summary = %+v", sum)
	}
}

func TestSettlementOverTCPFromPlatform(t *testing.T) {
	p, ds, _ := fixture(t, 6)
	dep, err := p.Deploy("phone-00", "clf", DeployConfig{PrepaidQueries: 100})
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float32, 4)
	for i := 0; i < 17; i++ {
		for f := 0; f < 4; f++ {
			x[f] = ds.X.At2(i, f)
		}
		if _, err := dep.Infer(x); err != nil {
			t.Fatal(err)
		}
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := metering.Serve(l, p.Settler)
	defer srv.Close()
	results := p.SettleAll(srv.Addr())
	if err := results["phone-00"]; err != nil {
		t.Fatalf("settlement failed: %v", err)
	}
	used, ok := p.Settler.SettledUsage(dep.Meter.Voucher().ID)
	if !ok || used != 17 {
		t.Fatalf("settled usage = %d", used)
	}
}

// TestSettleAllReportsPanic: a device whose settlement panics (here, a
// deployment that lost its meter) gets an error, not the nil that reads as
// settled; the other devices still settle.
func TestSettleAllReportsPanic(t *testing.T) {
	p, _, _ := fixture(t, 6)
	for _, id := range []string{"phone-00", "m4-wearable-00"} {
		if _, err := p.Deploy(id, "clf", DeployConfig{PrepaidQueries: 10}); err != nil {
			t.Fatal(err)
		}
	}
	broken, _ := p.Deployment("m4-wearable-00")
	broken.Meter = nil
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := metering.Serve(l, p.Settler)
	defer srv.Close()
	results := p.SettleAll(srv.Addr())
	if err := results["phone-00"]; err != nil {
		t.Fatalf("healthy device: %v", err)
	}
	if err := results["m4-wearable-00"]; err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("panicking settlement returned %v", err)
	}
}

func TestDeploySelectsDifferentVariantsAcrossFleet(t *testing.T) {
	p, ds, _ := fixture(t, 7)
	chosen := make(map[string]bool)
	for _, id := range []string{"m0-sensor-00", "npu-board-00", "edge-gateway-00"} {
		dep, err := p.Deploy(id, "clf", DeployConfig{PrepaidQueries: 10, Calibration: ds})
		if err != nil {
			t.Fatalf("deploy %s: %v", id, err)
		}
		chosen[dep.Version.ID] = true
	}
	if len(chosen) < 2 {
		t.Fatal("heterogeneous fleet collapsed to one variant")
	}
}

func TestDeployWithWatermarkTagsRegistry(t *testing.T) {
	p, ds, _ := fixture(t, 8)
	dep, err := p.Deploy("phone-00", "clf", DeployConfig{
		PrepaidQueries: 10, Calibration: ds, Watermark: "customer-42",
	})
	if err != nil {
		t.Fatal(err)
	}
	v, _ := p.Registry.Get(dep.Version.ID)
	if v.Tags["watermark:phone-00"] != "customer-42" {
		t.Fatalf("registry tags = %v", v.Tags)
	}
	// The mark extracts from the deployed copy. Capacity is scaled to the
	// carrier layer: the fixture's first dense layer has 64 weights → 16.
	bits := ipprot.KeyedBits("customer-42", 16)
	got, err := ipprot.ExtractStatic(dep.Model(), "customer-42", 16, ipprot.DefaultStaticWMConfig())
	if err != nil {
		t.Fatal(err)
	}
	if ber := ipprot.BitErrorRate(bits, got); ber != 0 {
		t.Fatalf("deployed-copy BER = %v", ber)
	}
}

func TestDeployWithPipelineModules(t *testing.T) {
	p, ds, _ := fixture(t, 9)
	means, stds := ds.Clone().Standardize()
	pre, err := procvm.NewBuilder("pre").Input().Normalize(means, stds).Build()
	if err != nil {
		t.Fatal(err)
	}
	post, err := procvm.NewBuilder("post").Input().Softmax().ArgMax().Build()
	if err != nil {
		t.Fatal(err)
	}
	dep, err := p.Deploy("phone-00", "clf", DeployConfig{
		PrepaidQueries: 10, Pre: pre, Post: post,
	})
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float32, 4)
	for f := 0; f < 4; f++ {
		x[f] = ds.X.At2(3, f)
	}
	res, err := dep.Infer(x)
	if err != nil {
		t.Fatal(err)
	}
	if res.Label < 0 || res.Label > 2 {
		t.Fatalf("label = %d", res.Label)
	}
}

func TestDeployErrors(t *testing.T) {
	p, _, _ := fixture(t, 10)
	if _, err := p.Deploy("no-such-device", "clf", DeployConfig{}); err == nil {
		t.Fatal("unknown device accepted")
	}
	if _, err := p.Deploy("phone-00", "no-such-model", DeployConfig{}); err == nil {
		t.Fatal("unknown model accepted")
	}
}

func TestFederatedUpdateImprovesAndRepublishes(t *testing.T) {
	p, _, _ := fixture(t, 11)
	rng := tensor.NewRNG(123)
	ds := dataset.Blobs(rng, 1200, 4, 3, 5)
	train, test := ds.Split(0.8, rng)
	shards := dataset.PartitionDirichlet(rng, train, 6, 1.0)
	clients := fed.MakeClients(train, shards, "c")
	spec := registry.OptimizationSpec{
		Schemes: []quant.Scheme{quant.Int8},
		Evaluate: func(n *nn.Network) float64 {
			return nn.Evaluate(n, test.X, test.Y)
		},
	}
	_, versions, stats, err := p.HierFederatedUpdate("clf", clients, test, fed.HierConfig{Config: fed.Config{
		Rounds: 4, LocalEpochs: 2, LocalBatch: 16, LR: 0.1, Seed: 17,
	}}, spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 4 {
		t.Fatalf("rounds = %d", len(stats))
	}
	if len(versions) != 2 { // new base + int8 variant
		t.Fatalf("republished %d versions", len(versions))
	}
	if versions[0].Metrics.Accuracy < 0.8 {
		t.Fatalf("federated model accuracy = %v", versions[0].Metrics.Accuracy)
	}
	// The registry now has two bases in the line.
	bases := 0
	for _, v := range p.Registry.Versions("clf") {
		if v.ParentID == "" {
			bases++
		}
	}
	if bases != 2 {
		t.Fatalf("bases in line = %d", bases)
	}
}

// An edge-tier setting with no edge tier is refused, not run flat.
func TestHierFederatedUpdateRefusesEdgeSettingsWithoutAnEdgeTier(t *testing.T) {
	p, _, _ := fixture(t, 11)
	rng := tensor.NewRNG(123)
	train, test := dataset.Blobs(rng, 120, 4, 3, 5).Split(0.8, rng)
	clients := fed.MakeClients(train, dataset.PartitionDirichlet(rng, train, 3, 1.0), "c")
	for _, hcfg := range []fed.HierConfig{
		{SecureAgg: true},
		{AggFaults: func(int, string) fed.ClientFault { return fed.ClientFault{} }},
		{Aggregators: -1},
	} {
		if _, _, _, err := p.HierFederatedUpdate("clf", clients, test, hcfg, registry.OptimizationSpec{}); err == nil {
			t.Errorf("aggregators %d, secure %v, faults %v: accepted", hcfg.Aggregators, hcfg.SecureAgg, hcfg.AggFaults != nil)
		}
	}
}

// TestFederatedPublishTags pins the provenance a federated run leaves on the
// published base: a flat run is tagged federated with its round
// count, and a two-tier run adds its topology and aggregator count.
func TestFederatedPublishTags(t *testing.T) {
	p, _, _ := fixture(t, 12)
	rng := tensor.NewRNG(125)
	ds := dataset.Blobs(rng, 600, 4, 3, 5)
	clients := fed.MakeClients(ds, dataset.PartitionIID(rng, ds, 6), "c")
	spec := registry.OptimizationSpec{Evaluate: func(n *nn.Network) float64 { return nn.Evaluate(n, ds.X, ds.Y) }}
	cfg := fed.Config{Rounds: 2, LocalEpochs: 1, LocalBatch: 16, LR: 0.1, Seed: 19}
	_, flat, _, err := p.HierFederatedUpdate("clf", clients, ds, fed.HierConfig{Config: cfg}, spec)
	if err != nil {
		t.Fatal(err)
	}
	_, hier, _, err := p.HierFederatedUpdate("clf", clients, ds, fed.HierConfig{Config: cfg, Aggregators: 3, SecureAgg: true}, spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name      string
		got, want map[string]string
	}{
		{"flat", flat[0].Tags, map[string]string{"source": "federated", "fed:rounds": "2"}},
		{"hierarchical", hier[0].Tags, map[string]string{"source": "federated", "fed:rounds": "2",
			"fed:topology": "hierarchical", "fed:aggregators": "3"}},
	} {
		if !maps.Equal(c.got, c.want) {
			t.Errorf("%s base tags %v, want %v", c.name, c.got, c.want)
		}
	}
}
