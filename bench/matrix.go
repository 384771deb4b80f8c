package main

import (
	"fmt"
	"time"

	"tinymlops/internal/compat"
	"tinymlops/internal/core"
	"tinymlops/internal/dataset"
	"tinymlops/internal/device"
	"tinymlops/internal/ipprot"
	"tinymlops/internal/nn"
	"tinymlops/internal/procvm"
	"tinymlops/internal/quant"
	"tinymlops/internal/registry"
	"tinymlops/internal/selector"
	"tinymlops/internal/tensor"
)

// kindSpec is one row of the five-kind serving matrix — the one
// internal/core/conformance_test.go pins: a serving kind, the policy that
// pins it, the device profile that executes it natively, and the split cut
// its offload plane runs at.
type kindSpec struct {
	name     string
	profile  string
	policy   selector.Policy
	marked   bool
	wantKind string
	wantExec quant.Scheme
	cut      int
}

func schemePin(s quant.Scheme) selector.Policy {
	return selector.Policy{Schemes: []quant.Scheme{s}}
}

var kinds = []kindSpec{
	{name: "float32", profile: "m7-camera", policy: schemePin(quant.Float32), wantKind: registry.KindNetwork, wantExec: quant.Float32, cut: 2},
	{name: "int8", profile: "phone", policy: schemePin(quant.Int8), wantKind: registry.KindNetwork, wantExec: quant.Int8, cut: 2},
	{name: "int4", profile: "npu-board", policy: schemePin(quant.Int4), wantKind: registry.KindNetwork, wantExec: quant.Int4, cut: 2},
	{name: "watermarked", profile: "edge-gateway", policy: schemePin(quant.Float32), marked: true, wantKind: registry.KindNetwork, wantExec: quant.Float32, cut: 2},
	{name: "procvm", profile: "m4-wearable", policy: selector.Policy{Kinds: []string{registry.KindProcVM}}, wantKind: registry.KindProcVM, wantExec: quant.Float32, cut: 0},
}

func deviceID(profile string, c int) string { return fmt.Sprintf("%s-%02d", profile, c) }

// wifiFleet is a standard fleet of perProfile devices per profile, all on
// WiFi.
func wifiFleet(perProfile int, seed uint64) (*device.Fleet, error) {
	fleet, err := device.NewStandardFleet(device.FleetSpec{CountPerProfile: perProfile, Seed: seed})
	if err != nil {
		return nil, err
	}
	for _, d := range fleet.Devices() {
		d.SetNet(device.WiFi)
	}
	return fleet, nil
}

// matrix is a platform serving one model line on the five-kind matrix, one
// full set per client so no deployment lock is shared and the kind mix is
// exactly equal.
type matrix struct {
	sz    sizing
	in    *inputs
	model modelSpec
	// pipeline binds a Normalize pre-module and an ArgMax post-module to
	// every deployment (serve_single).
	pipeline bool

	p         *core.Platform
	net       *nn.Network
	ds        *dataset.Dataset // what the model trained on (calibration set)
	base      *registry.ModelVersion
	pre, post *procvm.Module
	deps      [][]*core.Deployment // [client][kind]
	refs      [][]*reference       // [client][kind]
	rows      [][][]float32        // [client][row] raw inputs
	expect    [][][]int            // [client][kind][row], filled by the count pass

	// Setup-path layer timings, µs.
	publishUS, compileUS float64
	deployUS             []float64
}

func (m *matrix) setup(cfg core.Config) error {
	net, ds, raw, means, stds, err := m.in.trained(m.model, m.pipeline)
	if err != nil {
		return err
	}
	m.net, m.ds = net, ds
	fleet, err := wifiFleet(m.sz.clients, m.in.seed)
	if err != nil {
		return err
	}
	cfg.VendorKey, cfg.Seed, cfg.MinCohort, cfg.Workers = vendorKey, m.in.seed, 1, m.sz.workers
	if m.p, err = core.New(fleet, cfg); err != nil {
		return err
	}
	spec := registry.OptimizationSpec{
		Schemes:  []quant.Scheme{quant.Int8, quant.Int4},
		Evaluate: func(n *nn.Network) float64 { return nn.Evaluate(n, ds.X, ds.Y) },
	}
	start := time.Now()
	vs, err := m.p.Publish(m.model.name, net, ds, spec)
	if err != nil {
		return err
	}
	m.publishUS = us(time.Since(start))
	m.base = vs[0]
	art, err := m.p.Registry.Load(m.base.ID)
	if err != nil {
		return err
	}
	start = time.Now()
	mod, err := compat.CompileProcVM(art, compat.CompileOptions{Name: m.base.Name})
	if err != nil {
		return err
	}
	m.compileUS = us(time.Since(start))
	if _, err := m.p.Registry.RegisterCompiled(m.base.ID, mod, m.base.Metrics.Accuracy); err != nil {
		return err
	}
	if m.pipeline {
		if m.pre, err = procvm.NewBuilder("normalize").Input().Normalize(means, stds).Build(); err != nil {
			return err
		}
		if m.post, err = procvm.NewBuilder("label").Input().ArgMax().Build(); err != nil {
			return err
		}
	}

	for c := 0; c < m.sz.clients; c++ {
		var deps []*core.Deployment
		var refs []*reference
		for _, k := range kinds {
			id := deviceID(k.profile, c)
			dc := core.DeployConfig{Policy: k.policy, PrepaidQueries: 1 << 60, Calibration: ds, Pre: m.pre, Post: m.post}
			if k.marked {
				dc.Watermark = "customer-" + id
			}
			start := time.Now()
			dep, err := m.p.Deploy(id, m.model.name, dc)
			if err != nil {
				return fmt.Errorf("deploy %s on %s: %w", k.name, id, err)
			}
			m.deployUS = append(m.deployUS, us(time.Since(start)))
			if err := assertNoFallback(dep, k, m.base); err != nil {
				return err
			}
			ref, err := newReference(m.p, dep)
			if err != nil {
				return err
			}
			deps, refs = append(deps, dep), append(refs, ref)
		}
		m.deps, m.refs = append(m.deps, deps), append(m.refs, refs)
		m.rows = append(m.rows, m.in.rows(raw, m.sz.pool))
		exp := make([][]int, len(kinds))
		for k := range exp {
			exp[k] = make([]int, m.sz.pool)
		}
		m.expect = append(m.expect, exp)
	}
	return nil
}

// assertNoFallback pins a deployment to its matrix row: kind, executing
// precision, watermark flag and lineage. A silent fall-back to the float
// engine would make the row measure something else.
func assertNoFallback(dep *core.Deployment, k kindSpec, gen *registry.ModelVersion) error {
	switch {
	case dep.Version.Kind != k.wantKind:
		return fmt.Errorf("%s: kind %q, want %q", k.name, dep.Version.Kind, k.wantKind)
	case dep.ExecutionScheme() != k.wantExec:
		return fmt.Errorf("%s: execution scheme %v, want %v (silent fallback)", k.name, dep.ExecutionScheme(), k.wantExec)
	case dep.Watermarked() != k.marked:
		return fmt.Errorf("%s: watermarked=%v, want %v", k.name, dep.Watermarked(), k.marked)
	case (dep.CompiledModule() != nil) != (k.wantKind == registry.KindProcVM):
		return fmt.Errorf("%s: compiled-module presence disagrees with kind %q", k.name, k.wantKind)
	case dep.Version.ParentID != gen.ID && dep.Version.ID != gen.ID:
		return fmt.Errorf("%s: deployed %s is not a variant of generation %s", k.name, dep.Version.ID, gen.ID)
	}
	return nil
}

// reference recomputes what a deployment's live version should answer
// without touching the deployment's own executable: the registry artifact
// is loaded again (and, for a watermarked copy, marked again from the
// version's ownership tag) and run on a freshly built engine of the
// matching kind. Every serving plane must match it bit for bit.
type reference struct {
	net *nn.Network
	qm  *quant.QModel
	qs  *quant.QScratch
	mod *procvm.Module
	rt  *procvm.Runtime
}

func newReference(p *core.Platform, dep *core.Deployment) (*reference, error) {
	ver := dep.Version
	if ver.Kind == registry.KindProcVM {
		blob, err := p.Registry.Bytes(ver.ID)
		if err != nil {
			return nil, err
		}
		mod, err := procvm.DecodeModule(blob)
		if err != nil {
			return nil, err
		}
		rt := procvm.NewRuntime(mod.Caps)
		if mod.GasLimit > rt.MaxGas {
			rt.MaxGas = mod.GasLimit
		}
		return &reference{mod: mod, rt: rt}, nil
	}
	model, err := p.Registry.Load(ver.ID)
	if err != nil {
		return nil, err
	}
	if dep.Watermarked() {
		owner := ver.Tags["watermark:"+dep.DeviceID]
		if owner == "" {
			return nil, fmt.Errorf("watermarked deployment %s has no ownership tag on %s", dep.DeviceID, ver.ID)
		}
		bits := ipprot.KeyedBits(owner, core.WatermarkCapacity(model))
		if err := ipprot.EmbedStatic(model, owner, bits, ipprot.DefaultStaticWMConfig()); err != nil {
			return nil, err
		}
	}
	if s := dep.ExecutionScheme(); s != quant.Float32 {
		qm, err := quant.NewQModel(model, s)
		if err != nil {
			return nil, err
		}
		return &reference{qm: qm, qs: quant.NewQScratch()}, nil
	}
	return &reference{net: model}, nil
}

func (r *reference) logits(x []float32) ([]float32, error) {
	if r.mod != nil {
		res, err := r.rt.Run(r.mod, x)
		if err != nil {
			return nil, err
		}
		return append([]float32(nil), res.Output.Vec...), nil
	}
	in := tensor.FromSlice(append([]float32(nil), x...), 1, len(x))
	if r.qm != nil {
		return append([]float32(nil), r.qm.ForwardBatch(in, r.qs).Data...), nil
	}
	return append([]float32(nil), r.net.Predict(in).Data...), nil
}

// features applies the matrix's pre-module, on the harness's own runtime,
// to one raw input row.
func (m *matrix) features(rt *procvm.Runtime, x []float32) ([]float32, error) {
	if m.pre == nil {
		return x, nil
	}
	res, err := rt.Run(m.pre, x)
	if err != nil {
		return nil, err
	}
	return append([]float32(nil), res.Output.Vec...), nil
}

// want is the verified answer to one query: the label every serving plane
// must return, with the reference logits behind it. It also checks the
// deployment's own executable against the independent forward.
func (m *matrix) want(rt *procvm.Runtime, c, k int, x []float32) (int, []float32, error) {
	feats, err := m.features(rt, x)
	if err != nil {
		return 0, nil, err
	}
	logits, err := m.refs[c][k].logits(feats)
	if err != nil {
		return 0, nil, err
	}
	if !bitsEqual(m.deps[c][k].ReferenceLogits(feats), logits) {
		return 0, nil, fmt.Errorf("%s: serving logits differ from the independent forward", kinds[k].name)
	}
	return argMax(logits), logits, nil
}

// prune acknowledges every charge on client c's meters, as a settlement
// would: a meter keeps its unsettled chain, so a device that never settled
// would grow it without bound. Settlement itself has its own workload.
func (m *matrix) prune(c int) {
	for _, dep := range m.deps[c] {
		dep.Meter.Acknowledge(dep.Meter.Used())
	}
}

// energyJ sums the modelled energy the deployments' devices have spent.
func energyJ(deps []*core.Deployment) float64 {
	var j float64
	for _, dep := range deps {
		j += dep.Device().Snapshot().EnergyJoule
	}
	return j
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
