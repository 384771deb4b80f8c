package core

import (
	"math"
	"testing"

	"tinymlops/internal/compat"
	"tinymlops/internal/dataset"
	"tinymlops/internal/device"
	"tinymlops/internal/ipprot"
	"tinymlops/internal/market"
	"tinymlops/internal/nn"
	"tinymlops/internal/offload"
	"tinymlops/internal/procvm"
	"tinymlops/internal/quant"
	"tinymlops/internal/registry"
	"tinymlops/internal/selector"
	"tinymlops/internal/tensor"
)

// schemePin pins selection to one weight precision.
func schemePin(s quant.Scheme) selector.Policy {
	return selector.Policy{Schemes: []quant.Scheme{s}}
}

// conformanceVariant is one row of the variant matrix: a serving kind, the
// selection policy that pins it, the device serving it, and the split cut
// its offload plane runs at.
type conformanceVariant struct {
	name     string
	deviceID string
	policy   func() DeployConfig
	wantKind string
	wantExec quant.Scheme
	wantMark bool
	cut      int
}

// conformanceFixture is a six-profile fleet, two devices per profile,
// serving the "conf" model line,
// plus a started cloud tier. Generations are published one at a time (see
// publishGen) so each serving plane selects against exactly the registry
// state a staged rollout would see.
type conformanceFixture struct {
	p     *Platform
	cloud *offload.CloudTier
	ds    *dataset.Dataset
	es    int
	rng   *tensor.RNG
	spec  registry.OptimizationSpec
}

func newConformanceFixture(t *testing.T) *conformanceFixture {
	t.Helper()
	return newConformanceFixtureWith(t, Config{VendorKey: []byte("conformance-key-0123456789abcdef"), Seed: 9, MinCohort: 1})
}

// newConformanceFixtureWith is newConformanceFixture under a caller-chosen
// platform configuration.
func newConformanceFixtureWith(t *testing.T, cfg Config) *conformanceFixture {
	t.Helper()
	fleet, err := device.NewStandardFleet(device.FleetSpec{CountPerProfile: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range fleet.Devices() {
		d.SetNet(device.WiFi)
	}
	p, err := New(fleet, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := tensor.NewRNG(10)
	ds := dataset.Blobs(rng, 200, 6, 3, 4)
	f := &conformanceFixture{
		p: p, ds: ds, es: ds.X.Size() / ds.Len(), rng: rng,
		spec: registry.OptimizationSpec{
			Schemes:  []quant.Scheme{quant.Int8, quant.Int4},
			Evaluate: func(n *nn.Network) float64 { return nn.Evaluate(n, ds.X, ds.Y) },
		},
	}
	f.cloud = offload.NewCloud(offload.CloudConfig{})
	t.Cleanup(f.cloud.Close)
	return f
}

// publishGen publishes one new generation of the "conf" line — the float
// base, its int8/int4 variants, and a lowered procvm module — and returns
// the base version.
func (f *conformanceFixture) publishGen(t *testing.T) *registry.ModelVersion {
	t.Helper()
	net := nn.NewNetwork([]int{6},
		nn.NewDense(6, 16, f.rng), nn.NewReLU(), nn.NewDense(16, 3, f.rng))
	vs, err := f.p.Publish("conf", net, f.ds, f.spec)
	if err != nil {
		t.Fatal(err)
	}
	base := vs[0]
	art, err := f.p.Registry.Load(base.ID)
	if err != nil {
		t.Fatal(err)
	}
	mod, err := compat.CompileProcVM(art, compat.CompileOptions{Name: base.Name})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.p.Registry.RegisterCompiled(base.ID, mod, base.Metrics.Accuracy); err != nil {
		t.Fatal(err)
	}
	return base
}

// conformanceVariants returns the five-kind matrix plus two cells that
// prove a variant is one function on every device: int4 on hardware without
// 4-bit MACs, and a watermarked int8 copy, which splits through the
// enclave on the integer kernels. wantExec is the variant's own scheme in
// every row, whatever the device's bit widths.
func conformanceVariants() []conformanceVariant {
	return []conformanceVariant{
		{
			name: "float32", deviceID: "m7-camera-00",
			policy:   func() DeployConfig { return DeployConfig{Policy: schemePin(quant.Float32)} },
			wantKind: registry.KindNetwork, wantExec: quant.Float32, cut: 1,
		},
		{
			name: "int8", deviceID: "phone-00",
			policy:   func() DeployConfig { return DeployConfig{Policy: schemePin(quant.Int8)} },
			wantKind: registry.KindNetwork, wantExec: quant.Int8, cut: 2,
		},
		{
			name: "int4", deviceID: "npu-board-00",
			policy:   func() DeployConfig { return DeployConfig{Policy: schemePin(quant.Int4)} },
			wantKind: registry.KindNetwork, wantExec: quant.Int4, cut: 2,
		},
		{
			name: "watermarked", deviceID: "edge-gateway-00",
			policy: func() DeployConfig {
				return DeployConfig{Policy: schemePin(quant.Float32), Watermark: "conf-customer"}
			},
			wantKind: registry.KindNetwork, wantExec: quant.Float32, wantMark: true, cut: 1,
		},
		{
			name: "procvm", deviceID: "m4-wearable-00",
			policy: func() DeployConfig {
				return DeployConfig{Policy: selector.Policy{Kinds: []string{registry.KindProcVM}}}
			},
			wantKind: registry.KindProcVM, wantExec: quant.Float32, cut: 0,
		},
		{
			name: "int4-emulated", deviceID: "m7-camera-01",
			policy:   func() DeployConfig { return DeployConfig{Policy: schemePin(quant.Int4)} },
			wantKind: registry.KindNetwork, wantExec: quant.Int4, cut: 2,
		},
		{
			name: "watermarked-int8", deviceID: "m0-sensor-00",
			policy: func() DeployConfig {
				return DeployConfig{Policy: schemePin(quant.Int8), Watermark: "conf-customer"}
			},
			wantKind: registry.KindNetwork, wantExec: quant.Int8, wantMark: true, cut: 2,
		},
	}
}

// independentLogits recomputes what the deployment's live version should
// produce for one input row without touching the deployment's own
// executable: the registry artifact is re-loaded (and, for watermarked
// copies, re-marked from the version's ownership tag) and run through a
// freshly built engine of the version's kind and scheme. This is the
// monolithic reference every serving plane must match bit-for-bit.
func independentLogits(t *testing.T, p *Platform, dep *Deployment, x []float32) []float32 {
	t.Helper()
	ver := dep.Version
	if ver.Kind == registry.KindProcVM {
		blob, err := p.Registry.Bytes(ver.ID)
		if err != nil {
			t.Fatal(err)
		}
		mod, err := procvm.DecodeModule(blob)
		if err != nil {
			t.Fatal(err)
		}
		rt := procvm.NewRuntime(mod.Caps)
		if mod.GasLimit > rt.MaxGas {
			rt.MaxGas = mod.GasLimit
		}
		res, err := rt.Run(mod, x)
		if err != nil {
			t.Fatal(err)
		}
		return append([]float32(nil), res.Output.Vec...)
	}
	model, err := p.Registry.Load(ver.ID)
	if err != nil {
		t.Fatal(err)
	}
	if dep.Watermarked() {
		owner := ver.Tags["watermark:"+dep.DeviceID]
		if owner == "" {
			t.Fatalf("watermarked deployment %s has no ownership tag on %s", dep.DeviceID, ver.ID)
		}
		bits := ipprot.KeyedBits(owner, WatermarkCapacity(model))
		if err := ipprot.EmbedStatic(model, owner, bits, ipprot.DefaultStaticWMConfig()); err != nil {
			t.Fatal(err)
		}
	}
	in := tensor.FromSlice(append([]float32(nil), x...), 1, len(x))
	if ver.Scheme != quant.Float32 {
		qm, err := quant.NewQModel(model, ver.Scheme)
		if err != nil {
			t.Fatal(err)
		}
		return append([]float32(nil), qm.ForwardBatch(in, quant.NewQScratch()).Data...)
	}
	return append([]float32(nil), model.Predict(in).Data...)
}

func bitsEqual(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// assertNoFallback pins the deployment to its declared variant: the kind,
// the executing precision, the watermark flag and the lineage must all
// match the matrix row — a silent fall-back to the float engine (or an
// unmarked copy, or a stale generation) fails the cell even when the
// numbers happen to agree.
func assertNoFallback(t *testing.T, dep *Deployment, v conformanceVariant, wantVer *registry.ModelVersion) {
	t.Helper()
	if dep.Version.Kind != v.wantKind {
		t.Fatalf("%s: kind %q, want %q", v.name, dep.Version.Kind, v.wantKind)
	}
	if got := dep.ExecutionScheme(); got != v.wantExec {
		t.Fatalf("%s: execution scheme %v, want %v (silent fallback)", v.name, got, v.wantExec)
	}
	if dep.Watermarked() != v.wantMark {
		t.Fatalf("%s: watermarked=%v, want %v", v.name, dep.Watermarked(), v.wantMark)
	}
	if (dep.CompiledModule() != nil) != (v.wantKind == registry.KindProcVM) {
		t.Fatalf("%s: compiled-module presence disagrees with kind %q", v.name, v.wantKind)
	}
	if dep.Version.ParentID != wantVer.ID && dep.Version.ID != wantVer.ID {
		t.Fatalf("%s: deployed %s is not a variant of generation %s", v.name, dep.Version.ID, wantVer.ID)
	}
}

// serveConformance drives a few local queries through the deployment and
// requires its executable's logits to be bit-identical to the independent
// monolithic forward, with Infer's label the reference argmax.
func (f *conformanceFixture) serveConformance(t *testing.T, dep *Deployment, name, plane string) {
	t.Helper()
	for q := 0; q < 4; q++ {
		x := f.ds.X.Data[q*f.es : (q+1)*f.es]
		want := independentLogits(t, f.p, dep, x)
		if got := dep.ReferenceLogits(x); !bitsEqual(got, want) {
			t.Fatalf("%s/%s: serving logits differ from independent forward", name, plane)
		}
		out, err := dep.Infer(x)
		if err != nil {
			t.Fatalf("%s/%s: %v", name, plane, err)
		}
		if out.Label != argMax(want) {
			t.Fatalf("%s/%s: label %d, want argmax %d", name, plane, out.Label, argMax(want))
		}
	}
}

// TestConformanceVariantMatrix drives every variant kind through every
// serving plane — local serve, split offload, direct-ship update (the
// rollout plane) and swarm-sourced update — and requires each plane's
// answers to be bit-identical to a monolithic forward pass recomputed
// independently from the registry artifact. No cell may silently fall
// back: the executing kind, precision and watermark are asserted before
// any numbers are compared. Generations are published between planes, as a
// staged rollout would, so selection always re-decides against live
// registry state.
func TestConformanceVariantMatrix(t *testing.T) {
	f := newConformanceFixture(t)
	variants := conformanceVariants()
	deps := make(map[string]*Deployment, len(variants))

	// Planes 1+2: deploy against generation 1, serve locally, then serve
	// the same inputs through a pinned split — every query must actually
	// split (no silent local fallback) and return the reference bits.
	v1 := f.publishGen(t)
	for _, v := range variants {
		cfg := v.policy()
		cfg.PrepaidQueries = 200
		cfg.Calibration = f.ds
		dep, err := f.p.Deploy(v.deviceID, "conf", cfg)
		if err != nil {
			t.Fatalf("%s: %v", v.name, err)
		}
		deps[v.name] = dep
		assertNoFallback(t, dep, v, v1)
		f.serveConformance(t, dep, v.name, "serve")

		sess, err := f.p.Offload(v.deviceID, OffloadConfig{
			Cloud: f.cloud, Plan: &market.SplitPlan{Cut: v.cut},
			Replan: offload.ReplanConfig{Disabled: true},
		})
		if err != nil {
			t.Fatalf("%s: offload: %v", v.name, err)
		}
		for q := 0; q < 4; q++ {
			x := f.ds.X.Data[q*f.es : (q+1)*f.es]
			out, err := sess.Infer(x)
			if err != nil {
				t.Fatalf("%s/offload: %v", v.name, err)
			}
			if out.Split.Mode != offload.ModeSplit {
				t.Fatalf("%s/offload: mode %v, want split", v.name, out.Split.Mode)
			}
			if !bitsEqual(out.Split.Logits, independentLogits(t, f.p, dep, x)) {
				t.Fatalf("%s/offload: split logits differ from independent forward", v.name)
			}
		}
	}

	// Plane 3: rollout — generation 2 publishes, every variant updates via
	// a direct registry ship, survives re-selection in kind, and serves the
	// new generation bit-exactly.
	v2 := f.publishGen(t)
	for _, v := range variants {
		dep := deps[v.name]
		if _, err := dep.Update(v2, UpdateOptions{Calibration: f.ds}); err != nil {
			t.Fatalf("%s/rollout: %v", v.name, err)
		}
		assertNoFallback(t, dep, v, v2)
		f.serveConformance(t, dep, v.name, "rollout")
	}

	// Plane 4: swarm-sourced update to generation 3. Watermarked copies
	// are perturbed per customer, so their transfer ships direct even when
	// a swarm is offered — but the cell must still converge and stay
	// marked. Everyone else's bytes must be fully attributed to peers or
	// the registry.
	v3 := f.publishGen(t)
	sw, err := f.p.NewSwarm(SwarmOptions{ChunkBytes: 256, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range variants {
		dep := deps[v.name]
		rep, err := dep.Update(v3, UpdateOptions{Calibration: f.ds, Swarm: sw})
		if err != nil {
			t.Fatalf("%s/swarm-update: %v", v.name, err)
		}
		if rep.ShipBytes == 0 {
			t.Fatalf("%s/swarm-update: nothing shipped", v.name)
		}
		if !v.wantMark && rep.PeerBytes+rep.RegistryBytes != rep.ShipBytes {
			t.Fatalf("%s/swarm-update: swarm accounting %d+%d != %d shipped",
				v.name, rep.PeerBytes, rep.RegistryBytes, rep.ShipBytes)
		}
		assertNoFallback(t, dep, v, v3)
		f.serveConformance(t, dep, v.name, "swarm-update")
	}
	st := sw.Stats()
	if st.RegistryEgressBytes+st.PeerBytes != st.DeliveredBytes || st.ConservationViolations != 0 {
		t.Fatalf("swarm byte conservation broken after matrix: %+v", st)
	}
}
