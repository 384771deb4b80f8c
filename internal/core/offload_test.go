package core

import (
	"errors"
	"math"
	"strings"
	"testing"

	"tinymlops/internal/compat"
	"tinymlops/internal/enclave"
	"tinymlops/internal/selector"

	"tinymlops/internal/dataset"
	"tinymlops/internal/device"
	"tinymlops/internal/market"
	"tinymlops/internal/nn"
	"tinymlops/internal/offload"
	"tinymlops/internal/procvm"
	"tinymlops/internal/registry"
	"tinymlops/internal/tensor"
)

// offloadPlatform provisions a one-phone platform with a published model
// line and a live deployment, plus a started cloud tier.
func offloadPlatform(t *testing.T, watermark string) (*Platform, *Deployment, *offload.CloudTier, *dataset.Dataset) {
	t.Helper()
	fleet, err := device.NewStandardFleet(device.FleetSpec{CountPerProfile: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range fleet.Devices() {
		d.SetNet(device.WiFi)
	}
	p, err := New(fleet, Config{VendorKey: []byte("offload-core-key-0123456789abcdef"), Seed: 5, MinCohort: 1})
	if err != nil {
		t.Fatal(err)
	}
	rng := tensor.NewRNG(6)
	ds := dataset.Blobs(rng, 200, 6, 3, 4)
	net := nn.NewNetwork([]int{6},
		nn.NewDense(6, 16, rng), nn.NewReLU(), nn.NewDense(16, 3, rng))
	spec := registry.OptimizationSpec{Evaluate: func(n *nn.Network) float64 { return nn.Evaluate(n, ds.X, ds.Y) }}
	if _, err := p.Publish("off", net, ds, spec); err != nil {
		t.Fatal(err)
	}
	dep, err := p.Deploy("phone-00", "off", DeployConfig{
		PrepaidQueries: 50, Calibration: ds, Watermark: watermark,
	})
	if err != nil {
		t.Fatal(err)
	}
	cloud := offload.NewCloud(offload.CloudConfig{})
	t.Cleanup(cloud.Close)
	return p, dep, cloud, ds
}

// TestPlatformOffloadBitExactAndMetered drives mixed local and offloaded
// queries through one deployment: the offloaded answers must be
// bit-identical to the deployed model's own forward pass, the single
// prepaid meter must count both kinds, and telemetry windows must roll
// the combined traffic.
func TestPlatformOffloadBitExactAndMetered(t *testing.T) {
	p, dep, cloud, ds := offloadPlatform(t, "")
	cut := 1
	sess, err := p.Offload("phone-00", OffloadConfig{
		Cloud: cloud, Plan: &market.SplitPlan{Cut: cut},
		Replan: offload.ReplanConfig{Disabled: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	es := ds.X.Size() / ds.Len()
	for q := 0; q < 10; q++ {
		x := ds.X.Data[q*es : (q+1)*es]
		out, err := sess.Infer(x)
		if err != nil {
			t.Fatal(err)
		}
		if out.Split.Mode != offload.ModeSplit || out.Split.Cut != cut {
			t.Fatalf("query %d: mode %v cut %d", q, out.Split.Mode, out.Split.Cut)
		}
		want := dep.Model().Predict(tensor.FromSlice(append([]float32(nil), x...), 1, es))
		for i, v := range out.Split.Logits {
			if math.Float32bits(v) != math.Float32bits(want.Data[i]) {
				t.Fatalf("query %d: offloaded logit %d differs from on-device forward", q, i)
			}
		}
		if out.Label != want.ArgMaxRows()[0] {
			t.Fatalf("query %d: label %d", q, out.Label)
		}
		// Interleave a fully local query through the same deployment.
		if _, err := dep.Infer(x); err != nil {
			t.Fatal(err)
		}
	}
	if used := dep.Meter.Used(); used != 20 {
		t.Fatalf("meter used %d, want 20 (10 offloaded + 10 local)", used)
	}
	c := dep.Device().Snapshot()
	if c.TxBytes == 0 {
		t.Fatal("no activation bytes ever crossed the uplink")
	}
	st := sess.Stats()
	if st.Queries != 10 || st.Fallbacks != 0 {
		t.Fatalf("session stats %+v", st)
	}
	if cs := cloud.Stats(); cs.Served != 10 {
		t.Fatalf("cloud served %d, want 10", cs.Served)
	}
}

// TestPlatformOffloadDeniesWhenExhausted pins pay-per-query through the
// split: once the shared meter runs out, offloaded queries are denied
// before any compute, same as local ones — no prefix runs, no byte moves,
// no energy is spent and the split runtime never sees the query.
func TestPlatformOffloadDeniesWhenExhausted(t *testing.T) {
	p, dep, cloud, ds := offloadPlatform(t, "")
	sess, err := p.Offload("phone-00", OffloadConfig{
		Cloud: cloud, Plan: &market.SplitPlan{Cut: 1},
		Replan: offload.ReplanConfig{Disabled: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	es := ds.X.Size() / ds.Len()
	x := ds.X.Data[:es]
	for dep.Meter.Remaining() > 0 {
		if _, err := sess.Infer(x); err != nil {
			t.Fatal(err)
		}
	}
	before, split, served := dep.Device().Snapshot(), sess.Stats(), cloud.Stats().Served
	if _, err := sess.Infer(x); !errors.Is(err, ErrQueryDenied) {
		t.Fatalf("exhausted meter returned %v", err)
	}
	after := dep.Device().Snapshot()
	if after.Inferences != before.Inferences || after.TxBytes != before.TxBytes ||
		after.RxBytes != before.RxBytes || after.EnergyJoule != before.EnergyJoule {
		t.Fatalf("denied offloaded query still spent device resources: %+v -> %+v", before, after)
	}
	if after.DeniedQueries != before.DeniedQueries+1 {
		t.Fatal("denial not counted")
	}
	if st := sess.Stats(); st != split || cloud.Stats().Served != served {
		t.Fatalf("denied query reached the split runtime: session %+v -> %+v", split, st)
	}
}

// TestPlatformOffloadWatermarkedEnclave: a per-customer mark perturbs the
// on-device weights, so a plaintext cloud suffix could never be bit-exact.
// The platform instead seals the device's marked copy into the cloud
// enclave and the suffix executes inside the protected world — offloaded
// answers stay bit-identical to the watermarked model's own forward pass.
func TestPlatformOffloadWatermarkedEnclave(t *testing.T) {
	p, dep, cloud, ds := offloadPlatform(t, "customer-7")
	sess, err := p.Offload("phone-00", OffloadConfig{
		Cloud: cloud, Plan: &market.SplitPlan{Cut: 1},
		Replan: offload.ReplanConfig{Disabled: true},
	})
	if err != nil {
		t.Fatalf("watermarked offload: %v", err)
	}
	es := ds.X.Size() / ds.Len()
	for q := 0; q < 5; q++ {
		x := ds.X.Data[q*es : (q+1)*es]
		out, err := sess.Infer(x)
		if err != nil {
			t.Fatal(err)
		}
		if out.Split.Mode != offload.ModeSplit {
			t.Fatalf("query %d: mode %v, want split", q, out.Split.Mode)
		}
		want := dep.ReferenceLogits(x)
		for i, v := range out.Split.Logits {
			if math.Float32bits(v) != math.Float32bits(want[i]) {
				t.Fatalf("query %d: enclave logit %d differs from watermarked device forward", q, i)
			}
		}
	}
	// The sealed copy is per device: its cloud entry is keyed by device,
	// never colliding with the unmarked registry artifact.
	ver, _, _ := dep.StateSnapshot()
	if !cloud.Registered(ver.ID + "@phone-00") {
		t.Fatal("watermarked copy not registered under its per-device key")
	}
	if cloud.Registered(ver.ID) {
		t.Fatal("watermarked offload leaked an unprotected registry entry")
	}
}

// TestPlatformOffloadStaleAfterUpdate: an OTA update invalidates the
// session (new weights, new version) rather than serving a mixed model.
func TestPlatformOffloadStaleAfterUpdate(t *testing.T) {
	p, dep, cloud, ds := offloadPlatform(t, "")
	sess, err := p.Offload("phone-00", OffloadConfig{Cloud: cloud})
	if err != nil {
		t.Fatal(err)
	}
	es := ds.X.Size() / ds.Len()
	x := ds.X.Data[:es]
	if _, err := sess.Infer(x); err != nil {
		t.Fatal(err)
	}
	// Publish and install v2 (head fine-tune keeps the topology).
	v2net := dep.Model().Clone()
	head := v2net.Layers()[2].(*nn.Dense)
	for i := range head.W.Value.Data {
		head.W.Value.Data[i] += 0.01
	}
	spec := registry.OptimizationSpec{Evaluate: func(n *nn.Network) float64 { return 0.9 }}
	v2s, err := p.Publish("off", v2net, ds, spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dep.Update(v2s[0], UpdateOptions{Calibration: ds}); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Infer(x); !errors.Is(err, ErrOffloadStale) {
		t.Fatalf("stale session returned %v", err)
	}
	// A fresh session against the new version works again.
	sess2, err := p.Offload("phone-00", OffloadConfig{Cloud: cloud})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess2.Infer(x); err != nil {
		t.Fatal(err)
	}
}

// TestPlatformOffloadRejectsForeignEnclave: protected offload only serves
// through an enclave whose attestation chain verifies against the
// platform's vendor root. A session provisioned from a different
// manufacturer key (planted where the platform keeps its shared session)
// produces reports the platform cannot verify, so both protected paths —
// watermarked and compiled — must refuse to open.
func TestPlatformOffloadRejectsForeignEnclave(t *testing.T) {
	p, _, cloud, ds := offloadPlatform(t, "customer-7")
	rogueEnc, err := enclave.New("rogue-cloud", []byte("rogue-manufacturer-root-key-00001"), 1.5)
	if err != nil {
		t.Fatal(err)
	}
	p.encSess = enclave.NewSession(rogueEnc)
	if _, err := p.Offload("phone-00", OffloadConfig{Cloud: cloud}); err == nil {
		t.Fatal("watermarked offload accepted a foreign enclave")
	} else if !strings.Contains(err.Error(), "attestation") {
		t.Fatalf("watermarked offload failed outside attestation: %v", err)
	}

	// Compiled deployments take the enclave-module path; same gate. The
	// fixture publishes no quantized variants, so the deployed version is
	// the float base the compiled module descends from.
	base := p.Deployments()[0].Version
	art, err := p.Registry.Load(base.ID)
	if err != nil {
		t.Fatal(err)
	}
	mod, err := compat.CompileProcVM(art, compat.CompileOptions{Name: base.Name})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Registry.RegisterCompiled(base.ID, mod, base.Metrics.Accuracy); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Deploy("m4-wearable-00", "off", DeployConfig{
		PrepaidQueries: 10, Calibration: ds,
		Policy: selector.Policy{Kinds: []string{registry.KindProcVM}},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Offload("m4-wearable-00", OffloadConfig{Cloud: cloud}); err == nil {
		t.Fatal("compiled offload accepted a foreign enclave")
	} else if !strings.Contains(err.Error(), "attestation") {
		t.Fatalf("compiled offload failed outside attestation: %v", err)
	}
	// The platform's own lazily provisioned enclave still works.
	p.encSess = nil
	if _, err := p.Offload("m4-wearable-00", OffloadConfig{Cloud: cloud}); err != nil {
		t.Fatalf("vendor enclave refused after rogue attempt: %v", err)
	}
}

// TestOffloadAllocationPins pins what one OffloadSession.Infer allocates in
// the steady state at the split benchmark's shape — a 64-256-128-10 MLP,
// every network kind split at cut 2 and the compiled module run whole in
// the enclave at cut 0, the watermarked suffix in the enclave too: exactly
// what the query hands back, the cloud reply's payload and the result's
// logits. The boundary and the reply decode into storage the cloud's arena
// and the session keep; serve_offload measured 17.2 allocations per query
// while both crossed TMLT1 into fresh tensors.
func TestOffloadAllocationPins(t *testing.T) {
	f := newConformanceFixture(t)
	ds := dataset.Blobs(f.rng, 200, 64, 10, 4)
	f.ds, f.es = ds, 64
	f.spec.Evaluate = func(n *nn.Network) float64 { return nn.Evaluate(n, ds.X, ds.Y) }
	net := nn.NewNetwork([]int{64}, nn.NewDense(64, 256, f.rng), nn.NewReLU(),
		nn.NewDense(256, 128, f.rng), nn.NewReLU(), nn.NewDense(128, 10, f.rng))
	vs, err := f.p.Publish("conf", net, f.ds, f.spec)
	if err != nil {
		t.Fatal(err)
	}
	base := vs[0]
	mod, err := compat.CompileProcVM(net, compat.CompileOptions{Name: base.Name})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.p.Registry.RegisterCompiled(base.ID, mod, base.Metrics.Accuracy); err != nil {
		t.Fatal(err)
	}
	x := f.ds.X.Data[:f.es]
	for _, v := range conformanceVariants()[:5] {
		cut := 2
		if v.wantKind == registry.KindProcVM {
			cut = 0
		}
		cfg := v.policy()
		cfg.PrepaidQueries, cfg.Calibration = 1_000_000, f.ds
		dep, err := f.p.Deploy(v.deviceID, "conf", cfg)
		if err != nil {
			t.Fatalf("%s: %v", v.name, err)
		}
		assertNoFallback(t, dep, v, base)
		sess, err := f.p.Offload(v.deviceID, OffloadConfig{
			Cloud: f.cloud, Plan: &market.SplitPlan{Cut: cut}, Replan: offload.ReplanConfig{Disabled: true},
		})
		if err != nil {
			t.Fatalf("%s: %v", v.name, err)
		}
		infer := func() {
			out, err := sess.Infer(x)
			if err != nil {
				t.Fatal(err)
			}
			if out.Split.Mode != offload.ModeSplit || out.Split.Cut != cut {
				t.Fatalf("%s: mode %v at cut %d, want a split at %d", v.name, out.Split.Mode, out.Split.Cut, cut)
			}
		}
		for w := 0; w < 3; w++ {
			infer()
		}
		if got := testing.AllocsPerRun(200, infer); got != offloadAllocs {
			t.Errorf("%s: OffloadSession.Infer allocates %v per call, pinned at %d", v.name, got, offloadAllocs)
		}
	}
}

// offloadAllocs is a split query's reply payload and its logits.
const offloadAllocs = 2

// deployCompiled registers mod as a compiled variant of the "off" line's
// base and deploys it on deviceID.
func deployCompiled(t *testing.T, p *Platform, ds *dataset.Dataset, deviceID string, mod *procvm.Module) (*registry.ModelVersion, *Deployment) {
	t.Helper()
	base, err := p.Registry.Latest("off")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Registry.RegisterCompiled(base.ID, mod, base.Metrics.Accuracy); err != nil {
		t.Fatal(err)
	}
	dep, err := p.Deploy(deviceID, "off", DeployConfig{
		PrepaidQueries: 50, Calibration: ds,
		Policy: selector.Policy{Kinds: []string{registry.KindProcVM}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if dep.CompiledModule() == nil {
		t.Fatalf("%s deployed %s, want the compiled variant", deviceID, dep.Version.ID)
	}
	return base, dep
}

// compileBase lowers the "off" line's base network to a procvm module.
func compileBase(t *testing.T, p *Platform) *procvm.Module {
	t.Helper()
	base, err := p.Registry.Latest("off")
	if err != nil {
		t.Fatal(err)
	}
	net, err := p.Registry.Load(base.ID)
	if err != nil {
		t.Fatal(err)
	}
	mod, err := compat.CompileProcVM(net, compat.CompileOptions{Name: base.Name})
	if err != nil {
		t.Fatal(err)
	}
	return mod
}

// TestPlatformOffloadKeepsTheDeviceSandbox: a compiled variant that asks for
// a capability the deployment does not grant is denied wherever it runs:
// served directly, by an all-local offload session, which runs the
// deployment's own executor, and by a session that offloads it whole at cut
// 0, whose cloud enclave builds its executor under the same grant.
func TestPlatformOffloadKeepsTheDeviceSandbox(t *testing.T) {
	p, _, cloud, ds := offloadPlatform(t, "")
	w := make([]float32, 6*3)
	for i := range w {
		w[i] = float32(i%5) - 2
	}
	mod, err := procvm.NewBuilder("storage-hungry").RequireCaps(procvm.CapSensor|procvm.CapStorage).
		Input().MatVec(w, []float32{0, 0.5, -0.5}).Build()
	if err != nil {
		t.Fatal(err)
	}
	_, dep := deployCompiled(t, p, ds, "m4-wearable-00", mod)
	x := ds.X.Data[:6]
	if _, err := dep.Infer(x); !errors.Is(err, procvm.ErrCapabilityDenied) {
		t.Fatalf("Infer: %v, want a capability denial", err)
	}
	sess, err := p.Offload("m4-wearable-00", OffloadConfig{
		Cloud: cloud, Plan: &market.SplitPlan{Cut: 1}, Replan: offload.ReplanConfig{Disabled: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if out, err := sess.Infer(x); !errors.Is(err, procvm.ErrCapabilityDenied) {
		t.Fatalf("all-local offload session served in mode %v (err %v), want the deployment's capability denial", out.Split.Mode, err)
	}
	split, err := p.Offload("m4-wearable-00", OffloadConfig{
		Cloud: cloud, Plan: &market.SplitPlan{Cut: 0}, Replan: offload.ReplanConfig{Disabled: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if out, err := split.Infer(x); !errors.Is(err, procvm.ErrCapabilityDenied) {
		t.Fatalf("cut-0 offload session served in mode %v (err %v), want the deployment's capability denial", out.Split.Mode, err)
	}
}

// TestPlatformOffloadCompiledAfterParentEvicted: a compiled deployment opens
// a session from its own live image alone — the cloud enclave seals the
// module the device holds — so a registry that holds neither the float
// parent's artifact nor the compiled version's own does not stop it
// offloading, and the split answers bit for bit as the device does.
func TestPlatformOffloadCompiledAfterParentEvicted(t *testing.T) {
	p, _, cloud, ds := offloadPlatform(t, "")
	_, dep := deployCompiled(t, p, ds, "m4-wearable-00", compileBase(t, p))
	p.Registry = registry.New()
	sess, err := p.Offload("m4-wearable-00", OffloadConfig{
		Cloud: cloud, Plan: &market.SplitPlan{Cut: 0}, Replan: offload.ReplanConfig{Disabled: true},
	})
	if err != nil {
		t.Fatalf("offload against a registry without the parent's or the version's own artifact: %v", err)
	}
	for i := 0; i < 4; i++ {
		x := ds.X.Data[i*6 : (i+1)*6]
		out, err := sess.Infer(x)
		if err != nil {
			t.Fatal(err)
		}
		if out.Split.Mode != offload.ModeSplit || !bitsEqual(out.Split.Logits, dep.ReferenceLogits(x)) {
			t.Fatalf("row %d: mode %v, logits %v, want a split answering %v", i, out.Split.Mode, out.Split.Logits, dep.ReferenceLogits(x))
		}
	}
}
