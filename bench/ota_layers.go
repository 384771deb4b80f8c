package main

import (
	"fmt"
	"strings"

	"tinymlops/internal/core"
	"tinymlops/internal/device"
	"tinymlops/internal/ipprot"
	"tinymlops/internal/nn"
	"tinymlops/internal/quant"
	"tinymlops/internal/registry"
	"tinymlops/internal/rollout"
	"tinymlops/internal/selector"
	"tinymlops/internal/swarm"
	"tinymlops/internal/tensor"
)

// noopTarget is a fleet whose updates do nothing: what is left of a
// Controller.Run over it is the controller's own work.
type noopTarget struct{ ids []string }

func (t noopTarget) DeviceIDs() []string                     { return t.ids }
func (t noopTarget) Baseline(string) (rollout.Health, error) { return rollout.Health{}, nil }
func (t noopTarget) Health(string) (rollout.Health, error)   { return rollout.Health{}, nil }
func (t noopTarget) Rollback(string) error                   { return nil }
func (t noopTarget) Update(string) (rollout.Transfer, error) {
	return rollout.Transfer{ShipBytes: 1, FlashBytes: 1}, nil
}

// layers decomposes a rollout per device update: Deployment.Update is
// timed directly on a sample of the line's deployments, and its inputs are
// replayed through selector, swarm, delta and executor rebuild on the
// harness's own devices and swarm. The controller and the engine fan-out
// are timed over a fleet of no-ops of the op's size.
func (o *otaRollout) layers(lr *layerRun) {
	const c = 0
	line := o.lines[c]
	p := line.p
	opUS := lr.op[""]
	n := len(line.ids)

	// One more version of the line; the sampled deployments move to it one
	// by one, each through a swarm of its own so that every transfer comes
	// from the registry, as in the replay.
	from := line.base
	next := line.perturb()
	vs, err := p.Publish(line.name, next, o.eval, o.spec(c))
	must(err)
	target := vs[0]
	family := append([]*registry.ModelVersion{target}, p.Registry.Variants(target.ID)...)

	fleet := device.NewFleet()
	source := swarm.SourceFunc(func(key string) ([]byte, error) {
		a, b, ok := strings.Cut(strings.TrimPrefix(key, "delta:"), ">")
		if !ok {
			return nil, fmt.Errorf("replay swarm: key %q is not a delta", key)
		}
		return p.Registry.Delta(a, b)
	})
	var updateUS []float64
	sample := lr.reps
	if sample > n {
		sample = n
	}
	for i := 0; i < sample; i++ {
		dep, _ := p.Deployment(line.ids[(i*n)/sample])
		old, oldModel, _ := dep.StateSnapshot()
		sw, err := p.NewSwarm(core.SwarmOptions{Seed: o.in.seed + uint64(i)})
		must(err)
		id := lr.beginOp("core.update")
		rep, err := dep.Update(target, core.UpdateOptions{Swarm: sw})
		lr.end(id)
		must(err)
		if !rep.UsedDelta {
			must(fmt.Errorf("sampled update of %s shipped a full image, want a delta", dep.DeviceID))
		}
		updateUS = append(updateUS, lr.spans[id].us())

		// The same update, layer by layer.
		dev := device.NewDevice(fmt.Sprintf("bench-replay-%03d", i), dep.Device().Caps, tensor.NewRNG(o.in.seed))
		dev.SetNet(device.WiFi)
		must(fleet.Add(dev))
		rsw, err := swarm.New(swarm.Config{Source: source, Peer: fleet.Get, Seed: o.in.seed + uint64(i)})
		must(err)
		root := lr.beginOp("replay.update")
		var chosen *registry.ModelVersion
		lr.child(root, "selector.select", func() {
			dec, err := selector.Select(dev, family, schemePin(old.Scheme))
			must(err)
			chosen = dec.Chosen.Version
		})
		if chosen.ID != rep.To.ID {
			must(fmt.Errorf("replay selected %s, the update %s", chosen.ID, rep.To.ID))
		}
		var delta []byte
		lr.child(root, "swarm.transfer", func() {
			delta, _, err = rsw.Transfer(dev, "delta:"+old.ID+">"+chosen.ID, rep.FlashBytes)
			must(err)
		})
		var patched *nn.Network
		lr.child(root, "nn.apply_delta", func() {
			patched, err = nn.ApplyDelta(oldModel, delta)
			must(err)
		})
		if s := dep.ExecutionScheme(); s != quant.Float32 {
			lr.child(root, "quant.new_qmodel", func() {
				_, err := quant.NewQModel(patched, s)
				must(err)
			})
		}
		lr.end(root)
	}
	update := median(updateUS)
	lr.set("core.update_us", update)
	lr.set("core.self_us", clampSelf(update-childSumUS(lr.spans, "replay.update")))
	kids := childrenOf(lr.spans, "replay.update")
	lr.set("selector.select_us", medianUS(kids, "selector.select"))
	lr.set("swarm.transfer_us", medianUS(kids, "swarm.transfer"))
	lr.set("quant.new_qmodel_us", medianUS(kids, "quant.new_qmodel"))

	// The controller and the fan-out behind it, over n no-op devices.
	ctl := rollout.NewController(p.Engine())
	lr.set("rollout.controller_self_us", lr.probe("rollout.controller", 1, func() {
		res, err := ctl.Run(noopTarget{ids: line.ids}, rollout.Config{Waves: o.waves(c), Gate: permissiveGate, Seed: o.in.seed})
		must(err)
		if !res.Completed {
			must(fmt.Errorf("no-op rollout did not complete"))
		}
	}))
	lr.set("engine.foreach_overhead_us", lr.probe("engine.foreach", 1, func() {
		must(p.Engine().ForEach(n, func(int) error { return nil }))
	}))

	// Registry: a first and a repeated delta on fresh pairs, and a load.
	var deltaUS, cachedNS []float64
	prev, cur := target, next
	for r := 0; r < 5; r++ {
		cur = cur.Clone()
		head := cur.Layers()[len(cur.Layers())-1].(*nn.Dense)
		head.W.Value.Data[r] *= 0.99
		vs, err := p.Publish("bench-replay-delta", cur, o.eval, registry.OptimizationSpec{Evaluate: func(*nn.Network) float64 { return 1 }})
		must(err)
		if r > 0 {
			id := lr.beginOp("registry.delta")
			_, err := p.Registry.Delta(prev.ID, vs[0].ID)
			lr.end(id)
			must(err)
			deltaUS = append(deltaUS, lr.spans[id].us())
			id = lr.beginOp("registry.delta_cached")
			for k := 0; k < 16; k++ {
				_, err = p.Registry.Delta(prev.ID, vs[0].ID)
			}
			lr.end(id)
			must(err)
			cachedNS = append(cachedNS, lr.spans[id].us()*1e3/16)
		}
		prev = vs[0]
	}
	lr.set("registry.delta_us", median(deltaUS))
	lr.set("registry.delta_cached_ns", median(cachedNS))
	lr.set("registry.load_us", lr.probe("registry.load", 1, func() {
		_, err := p.Registry.Load(target.ID)
		must(err)
	}))
	lr.set("registry.publish_us", median(o.publishUS))
	lr.set("registry.blob_bytes_per_publish", ratio(float64(o.blobBytes), float64(o.publishes)))

	// The artifact codecs the path runs, each standing alone.
	oldNet, err := p.Registry.Load(from.ID)
	must(err)
	var delta, blob []byte
	lr.set("nn.encode_delta_us", lr.probe("nn.encode_delta", 1, func() {
		delta, err = nn.EncodeDelta(oldNet, next)
		must(err)
	}))
	lr.set("nn.apply_delta_us", lr.probe("nn.apply_delta", 1, func() {
		_, err := nn.ApplyDelta(oldNet, delta)
		must(err)
	}))
	lr.set("nn.marshal_us", lr.probe("nn.marshal", 1, func() {
		blob, err = next.MarshalBinary()
		must(err)
	}))
	lr.set("nn.unmarshal_us", lr.probe("nn.unmarshal", 1, func() {
		_, err := nn.UnmarshalNetwork(blob)
		must(err)
	}))
	var sealed *ipprot.EncryptedModel
	lr.set("ipprot.encrypt_us", lr.probe("ipprot.encrypt", 1, func() {
		sealed, err = ipprot.EncryptModel(vendorKey, target.ID, blob)
		must(err)
	}))
	lr.set("ipprot.decrypt_us", lr.probe("ipprot.decrypt", 1, func() {
		_, err := ipprot.DecryptModel(vendorKey, sealed)
		must(err)
	}))
	lr.set("swarm.build_manifest_us", lr.probe("swarm.build_manifest", 1, func() {
		_, err := swarm.BuildManifest("full:"+target.ID, blob, 0)
		must(err)
	}))
	probeDev := device.NewDevice("bench-replay-install", dep0Caps(o), tensor.NewRNG(o.in.seed))
	probeDev.SetNet(device.WiFi)
	lr.set("device.install_us", lr.probe("device.install", 4, func() {
		_, err := probeDev.Install(int64(len(delta)), int64(len(delta)))
		must(err)
	}))

	// Counters of the count pass.
	updates := lr.count.units
	st := o.swarmStats
	lr.set("swarm.peer_share", ratio(float64(st.PeerBytes), float64(st.DeliveredBytes)))
	lr.set("swarm.chunks_verified_per_update", float64(st.ChunksVerified)/updates)
	lr.set("swarm.registry_egress_bytes_per_update", float64(st.RegistryEgressBytes)/updates)
	lr.set("swarm.hash_rejects", float64(st.HashRejects))
	var deltas, fulls int
	var ship int64
	for _, res := range o.results {
		deltas += res.DeltaTransfers
		fulls += res.FullTransfers
		ship += res.TotalShipBytes
	}
	lr.set("rollout.delta_share", ratio(float64(deltas), float64(deltas+fulls)))
	lr.set("rollout.ship_bytes_per_update", float64(ship)/updates)
	lr.set("device.flashed_bytes_per_update", float64(o.flashed)/updates)
	lr.set("device.modelled_busy_us_per_query", lr.count.modelledUS/updates)
	lr.set("device.energy_mj_per_query", lr.count.energyJ*1e3/updates)
	lr.set("core.deploy_us", o.deployUS)

	// The only serving kernel on this path is the variant evaluation
	// inside Publish; the harness's Evaluate callback timed it.
	var evalNS, evalCalls int64
	for i := range o.evalNS {
		evalNS += o.evalNS[i]
		evalCalls += o.evalCalls[i]
	}
	if opUS > 0 {
		perPublish := float64(evalNS) / 1e3 / float64(evalCalls) * float64(len(family))
		lr.set("harness.kernel_share", perPublish/opUS)
	}
}

func dep0Caps(o *otaRollout) device.Capabilities {
	dep, _ := o.lines[0].p.Deployment(o.lines[0].ids[0])
	return dep.Device().Caps
}
