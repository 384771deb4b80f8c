package main

import (
	"tinymlops/internal/core"
	"tinymlops/internal/dataset"
	"tinymlops/internal/device"
	"tinymlops/internal/engine"
	"tinymlops/internal/ipprot"
	"tinymlops/internal/metering"
	"tinymlops/internal/nn"
	"tinymlops/internal/observe"
	"tinymlops/internal/procvm"
	"tinymlops/internal/quant"
	"tinymlops/internal/tensor"
)

// replayQueries is how many queries one replayed span covers: a burst op's
// 16 rows, or 16 single ops back to back, so that the clock reads around a
// span are small against the nanosecond-scale layers inside it.
const replayQueries = 16

// newMonitor calibrates a drift monitor the way core does for a
// deployment: per-feature CUSUM detectors over the calibration set.
func newMonitor(ref *dataset.Dataset) (*observe.Monitor, error) {
	n := ref.Len()
	es := ref.X.Size() / n
	rows := make([][]float32, n)
	for i := range rows {
		rows[i] = ref.X.Data[i*es : (i+1)*es]
	}
	cols := observe.ColumnsOf(rows)
	log2 := 0
	for 1<<log2 < len(cols) {
		log2++
	}
	h := 10 + 4*float64(log2)
	return observe.NewMonitor(cols, func(col []float64) (observe.Detector, error) {
		var w observe.Welford
		for _, v := range col {
			w.Add(v)
		}
		std := w.Std()
		if std <= 0 {
			std = 1
		}
		return observe.NewCUSUMDetector(w.Mean(), std, 0.5, h)
	})
}

// replayMeter is a meter of the harness's own on a fresh voucher from the
// platform's issuer, for replaying charges outside any deployment.
func replayMeter(p *core.Platform, tag, versionID string) *metering.Meter {
	voucher, err := p.Issuer.Issue("bench-replay-"+tag, versionID, 1<<60)
	must(err)
	return metering.NewMeter(voucher)
}

// forwarder runs the deployment's model on the harness's own executor and
// scratch, outside the deployment.
type forwarder struct {
	name string
	run  func(x *tensor.Tensor) []float32
}

func newForwarder(dep *core.Deployment, k kindSpec) (forwarder, error) {
	switch {
	case k.wantKind != "":
		mod := dep.CompiledModule()
		rt := procvm.NewRuntime(procvm.CapSensor)
		if mod.GasLimit > rt.MaxGas {
			rt.MaxGas = mod.GasLimit
		}
		return forwarder{name: "procvm.module_forward", run: func(x *tensor.Tensor) []float32 {
			rows := x.Dim(0)
			cols := x.Size() / rows
			var out []float32
			for r := 0; r < rows; r++ {
				res, err := rt.Run(mod, x.Data[r*cols:(r+1)*cols])
				must(err)
				out = res.Output.Vec
			}
			return out
		}}, nil
	case k.wantExec != quant.Float32:
		qm, err := quant.NewQModel(dep.Model(), k.wantExec)
		if err != nil {
			return forwarder{}, err
		}
		qs := quant.NewQScratch()
		name := "quant.forward_i8"
		if k.wantExec == quant.Int4 {
			name = "quant.forward_i4"
		}
		return forwarder{name: name, run: func(x *tensor.Tensor) []float32 { return qm.ForwardBatch(x, qs).Data }}, nil
	default:
		net, s := dep.Model(), nn.NewScratch()
		return forwarder{name: "nn.forward", run: func(x *tensor.Tensor) []float32 { return net.ForwardBatch(x, s).Data }}, nil
	}
}

// layers replays serving ops through the layers in the order core calls
// them, each on a harness-owned instance: a meter from the same issuer, a
// monitor from the same calibration set, a device of the same profile, an
// arena pool, the deployment's model on its own scratch, and the pipeline
// modules on their own runtime.
func (s *serve) layers(lr *layerRun) {
	rt := procvm.NewRuntime(procvm.CapSensor)
	arenas := engine.NewArenaPool()
	features := s.model.features()
	perQuery := map[string][]float64{}
	var kernelShare, selfUS []float64
	for k, spec := range kinds {
		dep := s.deps[0][k]
		meter := replayMeter(s.p, spec.name, dep.Version.ID)
		mon, err := newMonitor(s.ds)
		must(err)
		caps, err := device.ProfileByName(spec.profile)
		must(err)
		dev := device.NewDevice("bench-replay-"+spec.name, caps, tensor.NewRNG(s.in.seed))
		fwd, err := newForwarder(dep, spec)
		must(err)
		macs, bits := dep.Version.Metrics.MACs, dep.ExecutionScheme().Bits()

		root := "replay." + spec.name
		tick := uint64(0)
		for r := 0; r < lr.reps; r++ {
			rows := s.rows[0][(r*replayQueries)%(len(s.rows[0])-replayQueries+1):][:replayQueries]
			feats := make([][]float32, replayQueries)
			id := lr.beginOp(root)
			lr.child(id, "metering.charge", func() {
				for range rows {
					tick++
					_, err := meter.ChargeSeq(tick)
					must(err)
				}
			})
			if s.pre != nil {
				lr.child(id, "procvm.pre", func() {
					for i, x := range rows {
						res, err := rt.Run(s.pre, x)
						must(err)
						feats[i] = res.Output.Vec
					}
				})
			} else {
				copy(feats, rows)
			}
			lr.child(id, "observe.monitor", func() {
				for _, f := range feats {
					mon.Observe(f)
				}
			})
			lr.child(id, "device.run_inference", func() {
				for range rows {
					_, err := dev.RunInference(macs, bits)
					must(err)
				}
			})
			var logits [][]float32
			if s.burst {
				lr.child(id, "engine.arena", func() { arenas.Release(arenas.Acquire()) })
				flat := make([]float32, 0, replayQueries*features)
				for _, f := range feats {
					flat = append(flat, f...)
				}
				x := tensor.FromSlice(flat, replayQueries, features)
				lr.child(id, fwd.name, func() { fwd.run(x) })
			} else {
				lr.child(id, "engine.arena", func() {
					for range rows {
						arenas.Release(arenas.Acquire())
					}
				})
				lr.child(id, fwd.name, func() {
					for _, f := range feats {
						x := tensor.FromSlice(f, 1, features)
						logits = append(logits, append([]float32(nil), fwd.run(x)...))
					}
				})
			}
			if s.post != nil {
				lr.child(id, "procvm.post", func() {
					for _, l := range logits {
						_, err := rt.Run(s.post, l)
						must(err)
					}
				})
			}
			lr.end(id)
		}

		// One replayed span covers replayQueries queries: one burst op, or
		// replayQueries single ops.
		opsPerReplay := float64(replayQueries)
		if s.burst {
			opsPerReplay = 1
		}
		opUS := lr.op[spec.name] * opsPerReplay
		for _, sp := range lr.spans {
			if sp.Parent >= 0 && lr.spans[sp.Parent].Name == root {
				perQuery[sp.Name] = append(perQuery[sp.Name], sp.us()/replayQueries)
			}
		}
		fwdUS := medianUS(childrenOf(lr.spans, root), fwd.name)
		if opUS > 0 {
			kernelShare = append(kernelShare, fwdUS/opUS)
			selfUS = append(selfUS, (opUS-childSumUS(lr.spans, root))/opsPerReplay)
		}
		switch {
		case s.burst && spec.name == "float32":
			lr.set("nn.forward_batch16_us", fwdUS)
		case s.burst && spec.name == "int8":
			lr.set("quant.forward_i8_batch16_us", fwdUS)
		case s.burst && spec.name == "int4":
			lr.set("quant.forward_i4_batch16_us", fwdUS)
		case s.burst && spec.name == "procvm":
			lr.set("procvm.module_forward_us", fwdUS)
		case !s.burst && spec.name == "float32":
			lr.set("nn.forward_single_us", fwdUS/replayQueries)
		}
	}
	lr.set("metering.charge_ns", median(perQuery["metering.charge"])*1e3)
	lr.set("observe.monitor_observe_ns_per_feature", median(perQuery["observe.monitor"])*1e3/float64(features))
	lr.set("device.run_inference_ns", median(perQuery["device.run_inference"])*1e3)
	arenaCalls := float64(replayQueries)
	if s.burst {
		arenaCalls = 1
	}
	lr.set("engine.arena_acquire_ns", median(perQuery["engine.arena"])*1e3*replayQueries/arenaCalls)
	if !s.burst {
		lr.set("procvm.prepost_us", median(perQuery["procvm.pre"])+median(perQuery["procvm.post"]))
	}
	lr.set("harness.kernel_share", mean(kernelShare))
	lr.set("core.self_us", clampSelf(mean(selfUS)))

	for _, spec := range kinds {
		name := "core.infer_us." + spec.name
		if s.burst {
			name = "core.infer_batch16_us." + spec.name
		}
		lr.set(name, lr.op[spec.name])
	}

	// Telemetry: a flush with one open window per deployment behind it.
	var syncUS []float64
	for r := 0; r < lr.reps; r++ {
		for i := 0; i < len(kinds); i++ {
			s.op(0, i)
		}
		id := lr.beginOp("observe.sync")
		_, err := s.sync()
		lr.end(id)
		must(err)
		syncUS = append(syncUS, lr.spans[id].us())
	}
	lr.set("observe.sync_us", median(syncUS))
	lr.set("observe.telemetry_bytes_per_query", lr.count.vendorBytes/lr.count.units)
	lr.set("device.modelled_busy_us_per_query", lr.count.modelledUS/lr.count.units)
	lr.set("device.energy_mj_per_query", lr.count.energyJ*1e3/lr.count.units)

	s.setupLayers(lr)

	if s.burst {
		matmulProbes(lr, s.in.seed)
	}
}

// setupLayers reports the layers a matrix setup runs through: deploy,
// procvm compilation, publish, and the watermark embedding behind the
// marked copy.
func (m *matrix) setupLayers(lr *layerRun) {
	lr.set("core.deploy_us", median(m.deployUS))
	lr.set("compat.compile_us", m.compileUS)
	lr.set("registry.publish_us", m.publishUS)
	art, err := m.p.Registry.Load(m.base.ID)
	must(err)
	owner := "bench-replay-owner"
	bits := ipprot.KeyedBits(owner, core.WatermarkCapacity(art))
	lr.set("ipprot.watermark_embed_us", lr.probe("ipprot.watermark_embed", 1, func() {
		must(ipprot.EmbedStatic(art.Clone(), owner, bits, ipprot.DefaultStaticWMConfig()))
	}))
}

// matmulProbes times the three kws-mlp dense shapes at batch 16 on each
// matmul kernel, summed over the three layers.
func matmulProbes(lr *layerRun, seed uint64) {
	rng := tensor.NewRNG(seed)
	type shape struct{ k, n int }
	var shapes []shape
	for i := 0; i+1 < len(kwsMLP.widths); i++ {
		shapes = append(shapes, shape{kwsMLP.widths[i], kwsMLP.widths[i+1]})
	}
	const m = burstRows
	type operands struct {
		a, b, dst *tensor.Tensor
		a8, b8    []int8
		b4        []byte
		rowS      []float32
		colS      []float32
		out       []float32
	}
	ops := make([]operands, len(shapes))
	for i, sh := range shapes {
		o := &ops[i]
		o.a, o.b, o.dst = tensor.Randn(rng, 1, m, sh.k), tensor.Randn(rng, 1, sh.k, sh.n), tensor.New(m, sh.n)
		o.a8, o.b8 = make([]int8, m*sh.k), make([]int8, sh.k*sh.n)
		for j := range o.a8 {
			o.a8[j] = int8(rng.Intn(255) - 127)
		}
		b4codes := make([]int8, sh.k*sh.n)
		for j := range o.b8 {
			o.b8[j] = int8(rng.Intn(255) - 127)
			b4codes[j] = int8(rng.Intn(15) - 7)
		}
		var err error
		o.b4, err = tensor.PackInt4Matrix(b4codes, sh.k, sh.n)
		must(err)
		o.rowS, o.colS, o.out = make([]float32, m), make([]float32, sh.n), make([]float32, m*sh.n)
		for j := range o.rowS {
			o.rowS[j] = 1
		}
		for j := range o.colS {
			o.colS[j] = 1
		}
	}
	lr.set("tensor.matmul_f32_us", lr.probe("tensor.matmul_f32", 4, func() {
		for i := range ops {
			tensor.MatMulInto(ops[i].dst, ops[i].a, ops[i].b)
		}
	}))
	lr.set("tensor.matmul_i8_us", lr.probe("tensor.matmul_i8", 4, func() {
		for i, sh := range shapes {
			tensor.MatMulInt8(ops[i].out, ops[i].a8, ops[i].b8, m, sh.k, sh.n, ops[i].rowS, ops[i].colS)
		}
	}))
	lr.set("tensor.matmul_i4_us", lr.probe("tensor.matmul_i4", 4, func() {
		for i, sh := range shapes {
			tensor.MatMulInt4(ops[i].out, ops[i].a8, ops[i].b4, m, sh.k, sh.n, ops[i].rowS, ops[i].colS)
		}
	}))
}

// childrenOf returns the direct children of the root spans with the name.
func childrenOf(spans []span, root string) []span {
	var out []span
	for _, s := range spans {
		if s.Parent >= 0 && spans[s.Parent].Name == root {
			out = append(out, s)
		}
	}
	return out
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// clampSelf reports self time no lower than zero: it is a difference of
// two medians taken on different executions of the same work, so noise can
// push a near-zero remainder below it.
func clampSelf(v float64) float64 {
	if v < 0 {
		return 0
	}
	return v
}
