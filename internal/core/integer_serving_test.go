package core

import (
	"slices"
	"testing"

	"tinymlops/internal/dataset"
	"tinymlops/internal/device"
	"tinymlops/internal/market"
	"tinymlops/internal/nn"
	"tinymlops/internal/offload"
	"tinymlops/internal/quant"
	"tinymlops/internal/registry"
	"tinymlops/internal/selector"
	"tinymlops/internal/tensor"
)

// softCaps is a hardware profile with no native low-bit support: integer
// variants deployed here run the same integer kernels and pay the
// emulation penalty in the cost model.
func softCaps() device.Capabilities {
	return device.Capabilities{
		Name: "m-soft", Class: device.ClassM4,
		ClockHz:          120e6,
		MACsPerCycle:     map[int]float64{32: 0.5},
		EmulationPenalty: 2,
		FlashBytes:       1 << 20, RAMBytes: 256 << 10,
		EnergyPerMACJoule: 25e-12, EnergyPerTxByteJoule: 1.5e-6,
		BatteryJoule: 5000,
		SupportedOps: []string{"dense", "relu", "flatten", "softmax"},
	}
}

// integerFixture builds a platform over one NPU-class device (native
// int8) and one soft-float device, with a trained model line carrying an
// int8 variant.
func integerFixture(t *testing.T, seed uint64) (*Platform, *dataset.Dataset, []*registry.ModelVersion) {
	t.Helper()
	rng := tensor.NewRNG(seed)
	fleet := device.NewFleet()
	npuCaps, err := device.ProfileByName("npu-board")
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range []struct {
		id   string
		caps device.Capabilities
	}{{"npu-00", npuCaps}, {"soft-00", softCaps()}} {
		d := device.NewDevice(spec.id, spec.caps, nil)
		d.SetNet(device.WiFi)
		d.SetCharging(true)
		if err := fleet.Add(d); err != nil {
			t.Fatal(err)
		}
	}
	p, err := New(fleet, Config{VendorKey: []byte("integer-serving-key-0123456789ab"), Seed: seed, MinCohort: 1})
	if err != nil {
		t.Fatal(err)
	}
	ds := dataset.Blobs(rng, 600, 4, 3, 5)
	net := nn.NewNetwork([]int{4}, nn.NewDense(4, 16, rng), nn.NewReLU(), nn.NewDense(16, 3, rng))
	if _, err := nn.Train(net, ds.X, ds.Y, nn.TrainConfig{
		Epochs: 8, BatchSize: 32, Optimizer: nn.NewSGD(0.1).WithMomentum(0.9), RNG: rng,
	}); err != nil {
		t.Fatal(err)
	}
	versions, err := p.Publish("intline", net, ds, registry.OptimizationSpec{
		Schemes:  []quant.Scheme{quant.Int8},
		Evaluate: func(n *nn.Network) float64 { return nn.Evaluate(n, ds.X, ds.Y) },
	})
	if err != nil {
		t.Fatal(err)
	}
	return p, ds, versions
}

func int8Policy() selector.Policy {
	return selector.Policy{Schemes: []quant.Scheme{quant.Int8}}
}

// TestDeployIntegerVariantServesNativeKernels is the acceptance test of
// the integer serving path: an int8 variant deployed to a device with
// native 8-bit support executes via the QModel — the reported scheme is
// Int8, the charged latency is the device's native int8 latency (not the
// float32 one), every batched answer is bit-identical to the QModel built
// from the registry artifact, and the labels agree with the fake-quantized
// float reference within the documented tolerance.
func TestDeployIntegerVariantServesNativeKernels(t *testing.T) {
	p, ds, _ := integerFixture(t, 21)
	dep, err := p.Deploy("npu-00", "intline", DeployConfig{
		PrepaidQueries: 10_000, Policy: int8Policy(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if dep.Version.Scheme != quant.Int8 {
		t.Fatalf("selected scheme %v, policy pinned int8", dep.Version.Scheme)
	}
	if got := dep.ExecutionScheme(); got != quant.Int8 {
		t.Fatalf("execution scheme %v, want int8", got)
	}

	// The cost model charges the native int8 rate: on the NPU profile that
	// is 16× the float32 rate, so the two latencies must diverge.
	macs := dep.Version.Metrics.MACs
	caps := dep.Device().Caps
	wantLat := caps.InferenceLatency(macs, 8)
	if f32 := caps.InferenceLatency(macs, 32); wantLat >= f32 {
		t.Fatalf("fixture broken: int8 latency %v not below float32 %v", wantLat, f32)
	}
	x := make([]float32, 4)
	for f := range x {
		x[f] = ds.X.At2(0, f)
	}
	res, err := dep.Infer(x)
	if err != nil {
		t.Fatal(err)
	}
	if res.Latency != wantLat {
		t.Fatalf("charged latency %v, want native int8 latency %v", res.Latency, wantLat)
	}

	// Deployment answers are exactly the QModel of the registry artifact.
	artifact, err := p.Registry.Load(dep.Version.ID)
	if err != nil {
		t.Fatal(err)
	}
	qm, err := quant.NewQModel(artifact, quant.Int8)
	if err != nil {
		t.Fatal(err)
	}
	n := 64
	rows := make([][]float32, n)
	for i := range rows {
		rows[i] = append([]float32(nil), ds.X.Data[i*4:(i+1)*4]...)
	}
	wantLabels := qm.ForwardBatch(ds.X.RowSlice(0, n), nil).ArgMaxRows()
	floatLabels := artifact.Predict(ds.X.RowSlice(0, n)).ArgMaxRows()
	agree := 0
	for i, o := range dep.InferBatch(rows) {
		if o.Err != nil {
			t.Fatalf("row %d: %v", i, o.Err)
		}
		if o.Result.Label != wantLabels[i] {
			t.Fatalf("row %d: deployment label %d != QModel label %d", i, o.Result.Label, wantLabels[i])
		}
		if o.Result.Latency != wantLat {
			t.Fatalf("row %d: batched latency %v != %v", i, o.Result.Latency, wantLat)
		}
		if o.Result.Label == floatLabels[i] {
			agree++
		}
	}
	// Documented tolerance vs the fake-quantized float reference: dynamic
	// activation quantization perturbs each activation by at most half the
	// example's scale, which may flip a prediction sitting on a decision
	// boundary; at least 90% of labels must agree.
	if agree < n*9/10 {
		t.Fatalf("only %d/%d labels agree with the float reference", agree, n)
	}
}

// TestIntegerVariantIsOneFunctionOnEveryDevice pins §III-A's one variant,
// one function: the same int8 version on hardware with 8-bit MACs and on
// hardware without them shares one image (one table build, two references),
// runs the same integer kernels with bit-identical logits, and differs only
// in the modelled charge — each device pays InferenceLatency(macs, 8) on its
// own profile, so the soft device is emulated and slower than its float32
// rate.
func TestIntegerVariantIsOneFunctionOnEveryDevice(t *testing.T) {
	p, ds, _ := integerFixture(t, 22)
	var deps []*Deployment
	for _, id := range []string{"npu-00", "soft-00"} {
		dep, err := p.Deploy(id, "intline", DeployConfig{PrepaidQueries: 100, Policy: int8Policy()})
		if err != nil {
			t.Fatal(err)
		}
		if dep.Version.Scheme != quant.Int8 || dep.ExecutionScheme() != quant.Int8 {
			t.Fatalf("%s: selected %v, executing %v, want int8 both", id, dep.Version.Scheme, dep.ExecutionScheme())
		}
		deps = append(deps, dep)
	}
	if deps[0].Version.ID != deps[1].Version.ID {
		t.Fatalf("devices selected different variants: %s vs %s", deps[0].Version.ID, deps[1].Version.ID)
	}
	misses, keys := tableState(p)
	if want := []string{deps[0].Version.ID + " refs=2"}; misses != 1 || !slices.Equal(keys, want) {
		t.Fatalf("image table: %d misses, entries %v; want 1 miss, %v", misses, keys, want)
	}

	es := ds.X.Size() / ds.Len()
	for q := 0; q < 8; q++ {
		x := ds.X.Data[q*es : (q+1)*es]
		if !bitsEqual(deps[0].ReferenceLogits(x), deps[1].ReferenceLogits(x)) {
			t.Fatalf("row %d: logits differ between the native and the soft device", q)
		}
	}

	x := ds.X.Data[:es]
	for _, dep := range deps {
		res, err := dep.Infer(x)
		if err != nil {
			t.Fatal(err)
		}
		caps := dep.Device().Caps
		macs := dep.Version.Metrics.MACs
		if want := caps.InferenceLatency(macs, 8); res.Latency != want {
			t.Fatalf("%s: latency %v, want %v", dep.DeviceID, res.Latency, want)
		}
		if f32 := caps.InferenceLatency(macs, 32); caps.SupportsBits(8) != (res.Latency < f32) {
			t.Fatalf("%s: int8 latency %v vs float32 %v with native 8-bit MACs %v", dep.DeviceID, res.Latency, f32, caps.SupportsBits(8))
		}
	}
}

// TestQModelReinstantiatedAcrossUpdateAndRollback drives the OTA arc on
// an integer deployment: the delta still applies to the exact float
// artifact, and after Update and after Rollback the deployment serves a
// freshly derived QModel of whichever artifact is live.
func TestQModelReinstantiatedAcrossUpdateAndRollback(t *testing.T) {
	p, ds, versions := integerFixture(t, 23)
	dep, err := p.Deploy("npu-00", "intline", DeployConfig{
		PrepaidQueries: 10_000, Policy: int8Policy(),
	})
	if err != nil {
		t.Fatal(err)
	}
	v1Variant := dep.Version

	// v2: head-only fine-tune of the base, republished with its variants.
	base, err := p.Registry.Load(versions[0].ID)
	if err != nil {
		t.Fatal(err)
	}
	v2net := base.Clone()
	head := v2net.Layers()[2].(*nn.Dense)
	for i := range head.W.Value.Data {
		head.W.Value.Data[i] += 0.02 * float32(i%3+1)
	}
	v2s, err := p.Publish("intline", v2net, ds, registry.OptimizationSpec{
		Schemes:  []quant.Scheme{quant.Int8},
		Evaluate: func(n *nn.Network) float64 { return nn.Evaluate(n, ds.X, ds.Y) },
	})
	if err != nil {
		t.Fatal(err)
	}

	labelsFor := func(vID string) []int {
		t.Helper()
		artifact, err := p.Registry.Load(vID)
		if err != nil {
			t.Fatal(err)
		}
		qm, err := quant.NewQModel(artifact, quant.Int8)
		if err != nil {
			t.Fatal(err)
		}
		return qm.ForwardBatch(ds.X.RowSlice(0, 32), nil).ArgMaxRows()
	}
	check := func(stage string, wantVersion string) {
		t.Helper()
		if dep.Version.ID != wantVersion {
			t.Fatalf("%s: on version %s, want %s", stage, dep.Version.ID, wantVersion)
		}
		if got := dep.ExecutionScheme(); got != quant.Int8 {
			t.Fatalf("%s: execution scheme %v, want int8", stage, got)
		}
		want := labelsFor(wantVersion)
		rows := make([][]float32, 32)
		for i := range rows {
			rows[i] = append([]float32(nil), ds.X.Data[i*4:(i+1)*4]...)
		}
		for i, o := range dep.InferBatch(rows) {
			if o.Err != nil {
				t.Fatalf("%s row %d: %v", stage, i, o.Err)
			}
			if o.Result.Label != want[i] {
				t.Fatalf("%s row %d: label %d != artifact QModel label %d", stage, i, o.Result.Label, want[i])
			}
		}
	}

	check("pre-update", v1Variant.ID)
	if _, err := dep.Update(v2s[0], UpdateOptions{}); err != nil {
		t.Fatal(err)
	}
	v2Variant := p.Registry.Variants(v2s[0].ID)
	if len(v2Variant) != 1 {
		t.Fatalf("v2 variants = %d", len(v2Variant))
	}
	check("post-update", v2Variant[0].ID)
	if _, err := dep.Rollback(); err != nil {
		t.Fatal(err)
	}
	check("post-rollback", v1Variant.ID)
}

// TestOffloadIntegerDeployments pins how the platform keys the quantized
// split: an integer deployment offloads under the version's "#q" cloud
// entry and really splits at the dense-stage cut, and the same variant on
// hardware without the bit width splits through that same entry — no float
// entry of the version is registered. (Bit-exactness of the quantized split
// is the int8/int4 offload cells of the conformance matrix and, below them,
// the executor conformance table.)
func TestOffloadIntegerDeployments(t *testing.T) {
	p, ds, _ := integerFixture(t, 24)
	cloud := offload.NewCloud(offload.CloudConfig{})
	defer cloud.Close()
	es := ds.X.Size() / ds.Len()
	for _, id := range []string{"npu-00", "soft-00"} {
		dep, err := p.Deploy(id, "intline", DeployConfig{PrepaidQueries: 100, Policy: int8Policy()})
		if err != nil {
			t.Fatal(err)
		}
		if dep.ExecutionScheme() != quant.Int8 {
			t.Fatalf("%s: executing %v, want int8", id, dep.ExecutionScheme())
		}
		// Stage layout is [dense relu dense]: cut 2 is the dense boundary
		// the session snaps any plan onto.
		sess, err := p.Offload(id, OffloadConfig{
			Cloud: cloud, Plan: &market.SplitPlan{Cut: 2},
			Replan: offload.ReplanConfig{Disabled: true},
		})
		if err != nil {
			t.Fatalf("%s: integer offload: %v", id, err)
		}
		for q := 0; q < 8; q++ {
			x := ds.X.Data[q*es : (q+1)*es]
			out, err := sess.Infer(x)
			if err != nil {
				t.Fatal(err)
			}
			if out.Split.Mode != offload.ModeSplit || out.Split.Cut != 2 {
				t.Fatalf("%s query %d: mode %v cut %d", id, q, out.Split.Mode, out.Split.Cut)
			}
			if !bitsEqual(out.Split.Logits, dep.ReferenceLogits(x)) {
				t.Fatalf("%s query %d: split logits differ from the device's own", id, q)
			}
		}
		ver, _, _ := dep.StateSnapshot()
		if !cloud.Registered(ver.ID+"#q") || cloud.Registered(ver.ID) {
			t.Fatalf("%s: want the quant entry %s#q alone registered", id, ver.ID)
		}
	}
}
