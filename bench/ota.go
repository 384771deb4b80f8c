package main

import (
	"bytes"
	"fmt"
	"math"
	"time"

	"tinymlops/internal/core"
	"tinymlops/internal/dataset"
	"tinymlops/internal/device"
	"tinymlops/internal/nn"
	"tinymlops/internal/quant"
	"tinymlops/internal/registry"
	"tinymlops/internal/rollout"
	"tinymlops/internal/selector"
	"tinymlops/internal/swarm"
	"tinymlops/internal/tensor"
)

// perturbTouches is how many head weights one perturbation moves.
const perturbTouches = 64

// otaRollout is one publish + staged rollout per op: registry → delta and
// chunks → flash → swap. Serving kernels do next to nothing here. Each
// client owns a platform, with its registry, its fleet and one model line:
// two Platform.Rollout calls on one platform race on Deployment.Version
// (rolloutTarget.DeviceIDs reads it without the deployment's lock), so
// clients cannot share one.
type otaRollout struct {
	sz sizing
	in *inputs
	// hostile corrupts one deployed model before the count pass verifies
	// it — the negative control of the artifact check.
	hostile bool

	p    *core.Platform
	eval *dataset.Dataset
	// Per client: time inside spec.Evaluate, the only serving kernel on
	// this path, and how often it ran.
	evalNS, evalCalls []int64
	dropped           []string
	lines             []*otaLine

	deployUS, publishSetupUS float64
	// Count-pass accounting behind the per-layer counters.
	publishUS  []float64
	blobBytes  int
	publishes  int
	swarmStats swarm.Stats
	results    []*rollout.Result
	flashed    int64
}

// otaLine is one client's platform and the model line on it.
type otaLine struct {
	p       *core.Platform
	name    string
	ids     []string
	cur     *nn.Network
	base    *registry.ModelVersion
	trained []float32 // the head weights as trained
	// rng draws each version's perturbation. It is the line's own stream,
	// seeded from the run's seed: a fixed pool of perturbations would bring
	// old weights back, and the content-addressed registry would answer a
	// publish with a version it already holds.
	rng *tensor.RNG
	ops int // versions derived so far
}

// otaPins is the precision each standard profile's devices run in the OTA
// fleet: one the profile executes natively and has the flash for.
var otaPins = map[string]quant.Scheme{
	"m0-sensor": quant.Int8, "m4-wearable": quant.Int8,
	"m7-camera": quant.Float32, "edge-gateway": quant.Float32,
	"npu-board": quant.Int4, "phone": quant.Int4,
}

func newOTARollout(in *inputs, sz sizing) *otaRollout { return &otaRollout{sz: sz, in: in} }

func (o *otaRollout) spec(c int) registry.OptimizationSpec {
	return registry.OptimizationSpec{
		Schemes: []quant.Scheme{quant.Int8, quant.Int4},
		Evaluate: func(n *nn.Network) float64 {
			start := time.Now()
			acc := nn.Evaluate(n, o.eval.X, o.eval.Y)
			o.evalNS[c] += int64(time.Since(start))
			o.evalCalls[c]++
			return acc
		},
	}
}

func (o *otaRollout) setup() error {
	net, ds, _, _, _, err := o.in.trained(kwsMLP, false)
	if err != nil {
		return err
	}
	idx := make([]int, 64)
	for i := range idx {
		idx[i] = i
	}
	o.eval = ds.Subset(idx)
	o.evalNS, o.evalCalls = make([]int64, o.sz.clients), make([]int64, o.sz.clients)
	per := o.sz.otaPerProfile
	head := net.Layers()[len(net.Layers())-1].(*nn.Dense)
	for c := 0; c < o.sz.clients; c++ {
		fleet, err := wifiFleet(per, o.in.seed+uint64(c))
		if err != nil {
			return err
		}
		line := &otaLine{name: kwsMLP.name, cur: net, trained: head.W.Value.Data}
		line.p, err = core.New(fleet, core.Config{VendorKey: vendorKey, Seed: o.in.seed + uint64(c), MinCohort: 1, Workers: o.sz.workers})
		if err != nil {
			return err
		}
		stream := o.in.rng.Uint64()
		o.in.noteInts([]int{int(stream >> 1)})
		line.rng = tensor.NewRNG(stream)
		line.cur = line.perturb()
		start := time.Now()
		vs, err := line.p.Publish(line.name, line.cur, o.eval, o.spec(c))
		if err != nil {
			return err
		}
		o.publishSetupUS = us(time.Since(start))
		line.base = vs[0]
		// Each profile's devices are pinned to one precision, so that the
		// fleet is a third float32, a third int8 and a third int4 on every
		// seed. Every update still runs selection, but inside the pin: left
		// free, the selector's choice follows each variant's evaluated
		// accuracy, which moves with the seed and wobbles from version to
		// version, so whole cohorts flip between int8 and int4 and an op
		// ships 250× the bytes of its neighbours.
		start = time.Now()
		for _, prof := range device.StandardProfiles() {
			probe, _ := fleet.Get(deviceID(prof.Name, 0))
			pin := schemePin(otaPins[prof.Name])
			if _, err := selector.Select(probe, line.p.Registry.Versions(line.name), pin); err != nil {
				// The profile cannot hold its variant of the model: it sits
				// this fleet out, and the result names it.
				if c == 0 {
					o.dropped = append(o.dropped, prof.Name)
				}
				continue
			}
			ids := make([]string, per)
			for i := range ids {
				ids[i] = deviceID(prof.Name, i)
			}
			cfg := core.DeployConfig{PrepaidQueries: 1000, Policy: pin}
			if _, err := line.p.DeployMany(ids, line.name, cfg); err != nil {
				return err
			}
			line.ids = append(line.ids, ids...)
		}
		o.deployUS = us(time.Since(start)) / float64(len(line.ids))
		o.lines = append(o.lines, line)
	}
	return nil
}

func (o *otaRollout) close()            {}
func (o *otaRollout) group() int        { return 1 }
func (o *otaRollout) kind(i int) string { return "" }

// perturb derives the next version of the line: each op's perturbation
// moves a few head weights around their trained values by up to two int4
// quantization steps — far enough that int8 and int4 codes move too (a
// variant whose codes did not change would hash to a version the registry
// already holds), near enough that the weights never drift. A weight that
// is the largest of its row or column stays, and no new value reaches that
// size, so no quantization scale moves and the delta stays sparse in every
// variant.
func (l *otaLine) perturb() *nn.Network {
	next := l.cur.Clone()
	head := next.Layers()[len(next.Layers())-1].(*nn.Dense)
	w := head.W.Value
	rows, cols := w.Dim(0), w.Dim(1)
	rowMax, colMax := make([]float32, rows), make([]float32, cols)
	abs := func(v float32) float32 { return float32(math.Abs(float64(v))) }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			a := abs(w.Data[r*cols+c])
			rowMax[r] = max(rowMax[r], a)
			colMax[c] = max(colMax[c], a)
		}
	}
	for t := 0; t < perturbTouches; t++ {
		i, steps := l.rng.Intn(w.Size()), 4*l.rng.Float32()-2
		r, c := i/cols, i%cols
		if a := abs(w.Data[i]); a == rowMax[r] || a == colMax[c] {
			continue
		}
		v := l.trained[i] + steps*colMax[c]/7
		if limit := 0.95 * min(rowMax[r], colMax[c]); abs(v) > limit {
			v = limit * v / abs(v)
		}
		w.Data[i] = v
	}
	l.ops++
	return next
}

func (o *otaRollout) waves(c int) []rollout.Wave {
	return []rollout.Wave{
		{Name: "canary", Fraction: float64(o.sz.otaCanary) / float64(len(o.lines[c].ids))},
		{Name: "cohort", Fraction: 0.5},
		{Name: "fleet", Fraction: 1},
	}
}

// permissiveGate lets every wave through: nothing serves between update
// and gate here, so the gate has no traffic to judge.
var permissiveGate = rollout.Gate{MaxDriftFraction: 1, MaxErrorRate: 1, MaxLatencyIncrease: math.MaxFloat32}

// roll is the op: publish the next version of client c's line and roll it
// out in three waves through a fresh swarm.
func (o *otaRollout) roll(c int) (*registry.ModelVersion, *rollout.Result, *swarm.Swarm, time.Duration, error) {
	line := o.lines[c]
	next := line.perturb()
	start := time.Now()
	vs, err := line.p.Publish(line.name, next, o.eval, o.spec(c))
	if err != nil {
		return nil, nil, nil, 0, err
	}
	published := time.Since(start)
	seed := o.in.seed ^ uint64(c)<<32 ^ uint64(line.ops)
	sw, err := line.p.NewSwarm(core.SwarmOptions{Seed: seed})
	if err != nil {
		return nil, nil, nil, 0, err
	}
	res, err := line.p.Rollout(vs[0], core.RolloutConfig{Waves: o.waves(c), Gate: permissiveGate, Seed: seed, Swarm: sw})
	if err != nil {
		return nil, nil, nil, 0, err
	}
	if !res.Completed {
		return nil, nil, nil, 0, fmt.Errorf("rollout of %s did not complete", vs[0].ID)
	}
	line.cur, line.base = next, vs[0]
	return vs[0], res, sw, published, nil
}

func (o *otaRollout) step(c, i int) stepResult {
	_, _, _, _, err := o.roll(c)
	return stepResult{units: len(o.lines[c].ids), err: err}
}

func (o *otaRollout) count(c int, t *tally) {
	line := o.lines[c]
	before := o.counters(c)
	for k := 0; k < o.sz.otaCountOps; k++ {
		t.ops++
		t.units += float64(len(line.ids))
		blobs := line.p.Registry.Stats().BlobBytes
		target, res, sw, published, err := o.roll(c)
		if err != nil {
			t.fail(err)
			continue
		}
		o.publishUS = append(o.publishUS, us(published))
		o.blobBytes += line.p.Registry.Stats().BlobBytes - blobs
		o.publishes++
		o.results = append(o.results, res)
		st := sw.Stats()
		o.swarmStats.DeliveredBytes += st.DeliveredBytes
		o.swarmStats.RegistryEgressBytes += st.RegistryEgressBytes
		o.swarmStats.PeerBytes += st.PeerBytes
		o.swarmStats.ChunksVerified += st.ChunksVerified
		o.swarmStats.HashRejects += st.HashRejects
		if err := o.verify(c, target, res, st, k == 0); err != nil {
			t.fail(err)
		}
		t.vendorBytes += float64(res.TotalRegistryBytes)
		// rollout.Result carries no durations: the modelled transfer time
		// is what shipped over what the link carries.
		t.modelledUS += float64(res.TotalShipBytes) / device.WiFi.Bandwidth() * 1e6
	}
	after := o.counters(c)
	t.energyJ += after.EnergyJoule - before.EnergyJoule
	o.flashed += after.FlashedBytes - before.FlashedBytes
}

// counters sums the device counters of client c's line.
func (o *otaRollout) counters(c int) device.Counters {
	var sum device.Counters
	for _, id := range o.lines[c].ids {
		d, _ := o.lines[c].p.Fleet.Get(id)
		s := d.Snapshot()
		sum.EnergyJoule += s.EnergyJoule
		sum.FlashedBytes += s.FlashedBytes
	}
	return sum
}

// verify is the count pass's full check of one rollout: every deployment
// of the line runs a variant of the target, holds exactly the registry's
// bytes, and every delivered byte is attributed to the registry or a peer.
func (o *otaRollout) verify(c int, target *registry.ModelVersion, res *rollout.Result, st swarm.Stats, first bool) error {
	for n, id := range o.lines[c].ids {
		dep, ok := o.lines[c].p.Deployment(id)
		if !ok {
			return fmt.Errorf("no deployment on %s", id)
		}
		ver, model, _ := dep.StateSnapshot()
		if ver.ID != target.ID && ver.ParentID != target.ID {
			return fmt.Errorf("%s runs %s, not a variant of %s", id, ver.ID, target.ID)
		}
		if o.hostile && first && n == 0 {
			model.Params()[0].Value.Data[0] += 1
		}
		got, err := model.MarshalBinary()
		if err != nil {
			return err
		}
		want, err := o.lines[c].p.Registry.Bytes(ver.ID)
		if err != nil {
			return err
		}
		if !bytes.Equal(got, want) {
			return fmt.Errorf("%s: deployed artifact differs from registry bytes of %s", id, ver.ID)
		}
	}
	if res.TotalRegistryBytes+res.TotalPeerBytes != st.DeliveredBytes || res.TotalShipBytes != st.DeliveredBytes {
		return fmt.Errorf("bytes not conserved: registry %d + peers %d, shipped %d, delivered %d",
			res.TotalRegistryBytes, res.TotalPeerBytes, res.TotalShipBytes, st.DeliveredBytes)
	}
	if st.ConservationViolations != 0 || st.HashRejects != 0 {
		return fmt.Errorf("swarm ledger: %d conservation violations, %d hash rejects", st.ConservationViolations, st.HashRejects)
	}
	return nil
}
