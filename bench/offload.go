package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"time"

	"tinymlops/internal/core"
	"tinymlops/internal/device"
	"tinymlops/internal/enclave"
	"tinymlops/internal/market"
	"tinymlops/internal/nn"
	"tinymlops/internal/offload"
	"tinymlops/internal/procvm"
	"tinymlops/internal/quant"
	"tinymlops/internal/registry"
	"tinymlops/internal/tensor"
)

// serveOffload is one OffloadSession.Infer per op on kws-mlp: the kernels
// again, but as prefix + boundary codec + queue hand-off + suffix. Plans are
// pinned (re-planning off), so every query really splits: float, int8 and
// int4 at cut 2, the watermarked suffix inside the enclave, the compiled
// module whole at cut 0.
type serveOffload struct {
	matrix
	cloud    *offload.CloudTier
	sessions [][]*core.OffloadSession // [client][kind]
}

func newServeOffload(in *inputs, sz sizing) *serveOffload {
	s := &serveOffload{}
	s.sz, s.in, s.model = sz, in, kwsMLP
	return s
}

func (s *serveOffload) setup() error {
	if err := s.matrix.setup(core.Config{}); err != nil {
		return err
	}
	s.cloud = offload.NewCloud(offload.CloudConfig{})
	s.cloud.Start()
	for c := range s.deps {
		var row []*core.OffloadSession
		for _, k := range kinds {
			sess, err := s.p.Offload(deviceID(k.profile, c), core.OffloadConfig{
				Cloud:  s.cloud,
				Plan:   &market.SplitPlan{Cut: k.cut},
				Replan: offload.ReplanConfig{Disabled: true},
			})
			if err != nil {
				return fmt.Errorf("offload %s: %w", k.name, err)
			}
			row = append(row, sess)
		}
		s.sessions = append(s.sessions, row)
	}
	return nil
}

func (s *serveOffload) close() {
	if s.cloud != nil {
		s.cloud.Close()
	}
}

func (s *serveOffload) group() int        { return 1 }
func (s *serveOffload) kind(i int) string { return kinds[i%len(kinds)].name }

func (s *serveOffload) count(c int, t *tally) {
	rt := procvm.NewRuntime(procvm.CapSensor)
	energy := energyJ(s.deps[c])
	for k := range kinds {
		dep, sess := s.deps[c][k], s.sessions[c][k]
		used := dep.Meter.Used()
		for row, x := range s.rows[c] {
			t.ops++
			t.units++
			want, logits, err := s.want(rt, c, k, x)
			if err != nil {
				t.fail(err)
				continue
			}
			s.expect[c][k][row] = want
			out, err := sess.Infer(x)
			switch {
			case err != nil:
				t.fail(err)
			case out.Split.Mode != offload.ModeSplit:
				t.fail(fmt.Errorf("%s: mode %v, want split", kinds[k].name, out.Split.Mode))
			case !bitsEqual(out.Split.Logits, logits):
				t.fail(fmt.Errorf("%s: split logits differ from the independent forward", kinds[k].name))
			case out.Label != want:
				t.fail(fmt.Errorf("%s: label %d, want %d", kinds[k].name, out.Label, want))
			}
			t.vendorBytes += float64(out.Split.ActivationBytes + out.Split.ResponseBytes)
			t.modelledUS += us(out.Latency)
		}
		if got := dep.Meter.Used() - used; got != uint64(len(s.rows[c])) {
			t.fail(fmt.Errorf("%s: meter advanced by %d for %d queries", kinds[k].name, got, len(s.rows[c])))
		}
	}
	t.energyJ += energyJ(s.deps[c]) - energy
}

// pruneEvery is how many sweeps a client serves between two prunings of
// its meters: about ten a second.
const pruneEvery = 1024

func (s *serveOffload) step(c, i int) stepResult {
	k, row := i%len(kinds), (i/len(kinds))%len(s.rows[c])
	if (i+1)%(len(kinds)*pruneEvery) == 0 {
		defer s.prune(c)
	}
	out, err := s.sessions[c][k].Infer(s.rows[c][row])
	switch {
	case err != nil:
	case out.Split.Mode != offload.ModeSplit:
		err = fmt.Errorf("%s: mode %v, want split", kinds[k].name, out.Split.Mode)
	case out.Label != s.expect[c][k][row]:
		err = fmt.Errorf("%s: label %d, want %d", kinds[k].name, out.Label, s.expect[c][k][row])
	}
	return stepResult{units: 1, err: err}
}

// standalone opens an offload.Session of the harness's own against the
// entry Platform.Offload registered with the cloud for the deployment: its
// own device, its own copy of the model, no meter.
func (s *serveOffload) standalone(dep *core.Deployment, k kindSpec) (*offload.Session, error) {
	caps, err := device.ProfileByName(k.profile)
	if err != nil {
		return nil, err
	}
	dev := device.NewDevice("bench-replay-"+k.name, caps, tensor.NewRNG(s.in.seed))
	dev.SetNet(device.WiFi)
	cfg := offload.SessionConfig{
		Tenant: dev.ID, Device: dev, Cloud: s.cloud,
		Plan:   &market.SplitPlan{Cut: k.cut},
		Replan: offload.ReplanConfig{Disabled: true},
		Bits:   dep.Version.Scheme.Bits(),
	}
	switch {
	case k.wantKind == registry.KindProcVM:
		cfg.VersionID, cfg.Module = dep.Version.ID, dep.CompiledModule()
		cfg.ModuleMACs, cfg.InFeatures, cfg.Bits = dep.Version.Metrics.MACs, s.model.features(), 32
	case k.marked:
		cfg.VersionID, cfg.Model = dep.Version.ID+"@"+dep.DeviceID, dep.Model().Clone()
	case k.wantExec != quant.Float32:
		cfg.VersionID, cfg.Model, cfg.Scheme = dep.Version.ID+"#q", dep.Model().Clone(), k.wantExec
	default:
		cfg.VersionID, cfg.Model = dep.Version.ID, dep.Model().Clone()
	}
	return offload.NewSession(cfg)
}

func (s *serveOffload) layers(lr *layerRun) {
	features := s.model.features()
	perQuery := map[string][]float64{}
	var kernelShare, selfUS []float64
	for k, spec := range kinds {
		dep := s.deps[0][k]
		meter := replayMeter(s.p, spec.name, dep.Version.ID)
		mon, err := newMonitor(s.ds)
		must(err)
		sess, err := s.standalone(dep, spec)
		must(err)
		fwd, err := newForwarder(dep, spec)
		must(err)

		root := "replay." + spec.name
		tick := uint64(0)
		for r := 0; r < lr.reps; r++ {
			rows := s.rows[0][(r*replayQueries)%(len(s.rows[0])-replayQueries+1):][:replayQueries]
			id := lr.beginOp(root)
			lr.child(id, "metering.charge", func() {
				for range rows {
					tick++
					_, err := meter.ChargeSeq(tick)
					must(err)
				}
			})
			lr.child(id, "observe.monitor", func() {
				for _, x := range rows {
					mon.Observe(x)
				}
			})
			lr.child(id, "offload.session_exec", func() {
				for _, x := range rows {
					res, err := sess.Exec(x)
					must(err)
					if res.Mode != offload.ModeSplit {
						must(fmt.Errorf("standalone %s session ran %v, want split", spec.name, res.Mode))
					}
				}
			})
			lr.end(id)
		}
		for _, sp := range childrenOf(lr.spans, root) {
			perQuery[sp.Name] = append(perQuery[sp.Name], sp.us()/replayQueries)
		}
		x := tensor.FromSlice(append([]float32(nil), s.rows[0][0]...), 1, features)
		fwdUS := lr.probe(fwd.name+".single", 4, func() { fwd.run(x) })
		if opUS := lr.op[spec.name]; opUS > 0 {
			kernelShare = append(kernelShare, fwdUS/opUS)
			selfUS = append(selfUS, opUS-childSumUS(lr.spans, root)/replayQueries)
		}
		lr.set("core.offload_infer_us."+spec.name, lr.op[spec.name])
	}
	lr.set("metering.charge_ns", median(perQuery["metering.charge"])*1e3)
	lr.set("observe.monitor_observe_ns_per_feature", median(perQuery["observe.monitor"])*1e3/float64(features))
	lr.set("offload.session_exec_us", median(perQuery["offload.session_exec"]))
	lr.set("harness.kernel_share", mean(kernelShare))
	lr.set("core.self_us", clampSelf(mean(selfUS)))

	// The split path's own pieces at the cut-2 boundary, each standing
	// alone: the float codec, the quantization behind a QAB1 boundary (the
	// byte packing itself is private to offload), a bare CloudTier.Submit,
	// and the protected suffix as the enclave session runs it.
	float := s.deps[0][0]
	act, err := float.Model().Clone().ForwardPrefix(tensor.FromSlice(append([]float32(nil), s.rows[0][0]...), 1, features), kinds[0].cut)
	must(err)
	var wire bytes.Buffer
	lr.set("tensor.codec_us", lr.probe("tensor.codec", 8, func() {
		wire.Reset()
		_, err := act.WriteTo(&wire)
		must(err)
		var back tensor.Tensor
		_, err = back.ReadFrom(bytes.NewReader(wire.Bytes()))
		must(err)
	}))
	codes, scales := make([]int8, act.Size()), make([]float32, 1)
	lr.set("offload.qab_codec_us", lr.probe("offload.qab_codec", 8, func() {
		quant.QuantizeActivationsRows(act, codes, scales)
	}))
	payload := append([]byte(nil), wire.Bytes()...)
	lr.set("offload.cloud_submit_us", lr.probe("offload.cloud_submit", 4, func() {
		_, err := s.cloud.Submit("bench-replay", float.Version.ID, kinds[0].cut, payload)
		must(err)
	}))

	marked := s.deps[0][3]
	blob, err := marked.Model().MarshalBinary()
	must(err)
	enc, err := enclave.New("bench-replay-enclave", vendorKey, 1.2)
	must(err)
	es := enclave.NewSession(enc)
	lr.set("enclave.provision_us", lr.probe("enclave.provision", 1, func() {
		sealed, err := enc.Seal(blob)
		must(err)
		meas, err := es.LoadSealedNetwork("marked", sealed)
		must(err)
		want := sha256.Sum256(blob)
		rep, err := es.Attest("marked", want[:16])
		must(err)
		if meas != want || !enclave.VerifyReport(vendorKey, rep) {
			must(fmt.Errorf("enclave attestation failed"))
		}
	}))
	inside, err := es.Network("marked")
	must(err)
	suffix, err := inside.Subnet(kinds[3].cut, len(inside.Layers()))
	must(err)
	scratch := nn.NewScratch()
	lr.set("enclave.suffix_us", lr.probe("enclave.suffix", 8, func() { suffix.ForwardBatch(act, scratch) }))

	costs, err := float.Model().Summary()
	must(err)
	lr.set("market.best_split_us", lr.probe("market.best_split", 8, func() {
		_, _, err := market.BestSplit(costs, float.Device().Caps, s.cloud.Caps(), 32, device.WiFi.Bandwidth(), time.Millisecond, int64(4*features))
		must(err)
	}))

	// Counters the platform already keeps, read from outside.
	cs := s.cloud.Stats()
	lr.set("offload.cloud_batch_mean", ratio(float64(cs.Served), float64(cs.Batches)))
	lr.set("offload.shed_share", ratio(float64(cs.Shed), float64(cs.Submitted)))
	lr.set("offload.max_queue_depth", float64(cs.MaxQueueDepth))
	var st offload.Stats
	for _, row := range s.sessions {
		for _, sess := range row {
			o := sess.Stats()
			st.Queries += o.Queries
			st.Fallbacks += o.Fallbacks
			st.ActivationBytes += o.ActivationBytes
		}
	}
	lr.set("offload.fallback_share", ratio(float64(st.Fallbacks), float64(st.Queries)))
	lr.set("offload.activation_bytes_per_query", ratio(float64(st.ActivationBytes), float64(st.Queries)))
	lr.set("device.modelled_busy_us_per_query", lr.count.modelledUS/lr.count.units)
	lr.set("device.energy_mj_per_query", lr.count.energyJ*1e3/lr.count.units)
	s.setupLayers(lr)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
