package core

import (
	"math"
	"slices"
	"strings"
	"sync"
	"testing"

	"tinymlops/internal/device"
	"tinymlops/internal/procvm"
	"tinymlops/internal/registry"
	"tinymlops/internal/selector"
)

// deployMatrix deploys every row of the conformance variant matrix
// against a freshly published generation and returns the deployments in
// matrix order.
func deployMatrix(t *testing.T, f *conformanceFixture, quota uint64) []*Deployment {
	t.Helper()
	return deployGen(t, f, f.publishGen(t), quota, nil)
}

// deployGen is deployMatrix against generation gen, each row's
// configuration edited by with if it is not nil.
func deployGen(t *testing.T, f *conformanceFixture, gen *registry.ModelVersion, quota uint64, with func(*DeployConfig)) []*Deployment {
	t.Helper()
	var deps []*Deployment
	for _, v := range conformanceVariants() {
		cfg := v.policy()
		cfg.PrepaidQueries = quota
		cfg.Calibration = f.ds
		if with != nil {
			with(&cfg)
		}
		dep, err := f.p.Deploy(v.deviceID, "conf", cfg)
		if err != nil {
			t.Fatalf("%s: %v", v.name, err)
		}
		assertNoFallback(t, dep, v, gen)
		deps = append(deps, dep)
	}
	return deps
}

// servingState is the deployment state a failed query may and may not move.
type servingState struct {
	used, retained, failed, inferences uint64
}

func snapshotServing(d *Deployment) servingState {
	d.mu.Lock()
	defer d.mu.Unlock()
	return servingState{
		used: d.Meter.Used(), retained: uint64(len(d.retained)), failed: uint64(d.winFailed),
		inferences: uint64(d.device.Snapshot().Inferences),
	}
}

// TestWrongWidthQueryFailsAloneOnEveryKind is the regression table for the
// shape panic: a 3-feature query against a 6-feature model used to panic
// the caller out of nn (or out of the VM wrapper) after the meter was
// charged. On every variant kind it must now come back as that query's
// error — charge standing, evidence retained, window health debited, no
// device time spent — and leave the next query, single or batched,
// untouched. A batch's first row does not fix its width: every executor
// declares its own, a compiled module's included, so a bad first row fails
// alone too.
func TestWrongWidthQueryFailsAloneOnEveryKind(t *testing.T) {
	f := newConformanceFixtureWith(t, Config{
		VendorKey: []byte("wrong-width-key-0123456789abcdef"), Seed: 9, MinCohort: 1, VerifiedBilling: true,
	})
	deps := deployMatrix(t, f, 100)
	good := f.ds.X.Data[:f.es]
	bad := good[:3]
	for i, v := range conformanceVariants() {
		dep := deps[i]
		ref, err := dep.Infer(good)
		if err != nil {
			t.Fatalf("%s: %v", v.name, err)
		}

		before := snapshotServing(dep)
		if _, err := dep.Infer(bad); err == nil {
			t.Fatalf("%s: 3-feature query served by a 6-feature model", v.name)
		} else if strings.Contains(err.Error(), "panic") {
			t.Fatalf("%s: %v", v.name, err)
		}
		after := snapshotServing(dep)
		if after.used != before.used+1 || after.retained != before.retained+1 || after.failed != before.failed+1 {
			t.Fatalf("%s: failed query moved state %+v -> %+v, want one charge, one retained row, one failure", v.name, before, after)
		}
		if after.inferences != before.inferences {
			t.Fatalf("%s: device ran %d inferences for a query rejected on width", v.name, after.inferences-before.inferences)
		}

		if got, err := dep.Infer(good); err != nil || got.Label != ref.Label {
			t.Fatalf("%s: query after the failure: label %d err %v, want label %d", v.name, got.Label, err, ref.Label)
		}
		outs := dep.InferBatch([][]float32{good, bad, good})
		if outs[1].Err == nil {
			t.Fatalf("%s: batch served the 3-feature row", v.name)
		}
		for _, qi := range []int{0, 2} {
			if outs[qi].Err != nil || outs[qi].Result.Label != ref.Label {
				t.Fatalf("%s: batch row %d: label %d err %v, want label %d", v.name, qi, outs[qi].Result.Label, outs[qi].Err, ref.Label)
			}
		}
		if got := snapshotServing(dep); got.used != after.used+4 || got.retained != after.retained+4 || got.failed != after.failed+1 {
			t.Fatalf("%s: batch around a bad row moved state %+v -> %+v", v.name, after, got)
		}
		outs = dep.InferBatch([][]float32{bad, good, good})
		if outs[0].Err == nil {
			t.Fatalf("%s: batch served its 3-feature first row", v.name)
		}
		for _, qi := range []int{1, 2} {
			if outs[qi].Err != nil || outs[qi].Result.Label != ref.Label {
				t.Fatalf("%s: batch led by a bad row, row %d: label %d err %v, want label %d", v.name, qi, outs[qi].Result.Label, outs[qi].Err, ref.Label)
			}
		}
	}
}

// TestFailingQueryInsideForEachIsolatesOneDevice drives the whole fleet
// through the engine's worker pool with one device submitting a misshapen
// query: the round reports that device's error — an error, not a recovered
// panic — and every neighbour's answer is the one it gives alone.
func TestFailingQueryInsideForEachIsolatesOneDevice(t *testing.T) {
	f := newConformanceFixtureWith(t, Config{
		VendorKey: []byte("foreach-isolation-key-0123456789"), Seed: 9, MinCohort: 1, Workers: 4,
	})
	deps := deployMatrix(t, f, 100)
	const victim = 1
	rows := make([][]float32, len(deps))
	for i := range rows {
		rows[i] = f.ds.X.Data[i*f.es : (i+1)*f.es]
	}
	labels := make([]int, len(deps))
	err := f.p.Engine().ForEach(len(deps), func(i int) error {
		x := rows[i]
		if i == victim {
			x = x[:2]
		}
		res, err := deps[i].Infer(x)
		labels[i] = res.Label
		return err
	})
	if err == nil || strings.Contains(err.Error(), "panicked") {
		t.Fatalf("round error %v, want the victim's query error and no recovered panic", err)
	}
	if n := strings.Count(err.Error(), "\n") + 1; n != 1 {
		t.Fatalf("%d devices failed, want only the victim:\n%v", n, err)
	}
	for i, dep := range deps {
		if i == victim {
			continue
		}
		if want := argMax(dep.ReferenceLogits(rows[i])); labels[i] != want {
			t.Fatalf("device %d answered %d inside the pool, %d alone", i, labels[i], want)
		}
	}
	if res, err := deps[victim].Infer(rows[victim]); err != nil || res.Label != argMax(deps[victim].ReferenceLogits(rows[victim])) {
		t.Fatalf("victim's next query: label %d err %v", res.Label, err)
	}
}

// TestServingAllocationPins pins the steady-state allocation counts of the
// deployment-level serving calls on every kind (the nn, quant and procvm
// packages pin only their kernels), bare and behind serve_single's
// pipeline, a normalize pre-module and an argmax post-module. The pipeline
// allocates nothing: the meter hashes a charge on its stack, and every
// procvm run, a compiled model's included, works in a scratch the
// deployment or the arena keeps. What remains is the result slice
// InferBatch returns. Under verified billing each charge retains its
// quantized row, in a row an earlier settled charge left behind: the
// verified shape settles a backlog first, so the pinned calls reuse its
// rows. History: the procvm kind paid 4 allocations per row and each
// module 4 (normalize) or 1 (argmax) per query while procvm allocated
// every value it pushed; a verified-billing Infer allocated its row.
func TestServingAllocationPins(t *testing.T) {
	f := newConformanceFixture(t)
	batch := make([][]float32, 16)
	for i := range batch {
		batch[i] = f.ds.X.Data[i*f.es : (i+1)*f.es]
	}
	gen := f.publishGen(t)
	pre, post := servePipeline(t, f)
	vf := newConformanceFixtureWith(t, Config{
		VendorKey: []byte("conformance-key-0123456789abcdef"), Seed: 9, MinCohort: 1,
		VerifiedBilling: true, AttestationRate: 16,
	})
	vgen := vf.publishGen(t)
	for _, shape := range []struct {
		name string
		f    *conformanceFixture
		gen  *registry.ModelVersion
		with func(*DeployConfig)
		// backlog charges are served and settled before the pins, more
		// than the warm-ups and the pinned calls charge after it.
		backlog int
	}{
		{"bare", f, gen, nil, 0},
		{"pipeline", f, gen, func(c *DeployConfig) { c.Pre, c.Post = pre, post }, 0},
		{"verified", vf, vgen, nil, 4096},
	} {
		deps := deployGen(t, shape.f, shape.gen, 1_000_000, shape.with)
		for i, v := range conformanceVariants() {
			dep := deps[i]
			if shape.backlog > 0 {
				for q := 0; q < shape.backlog; q++ {
					if _, err := dep.Infer(batch[q%len(batch)]); err != nil {
						t.Fatal(err)
					}
				}
				rep, err := dep.Meter.BuildAttestedReport()
				if err != nil {
					t.Fatal(err)
				}
				rc := shape.f.p.Settler.SettleAttested(rep)
				if !rc.OK || rc.ProofsChecked == 0 {
					t.Fatalf("%s: backlog settlement receipt %+v", v.name, rc)
				}
				dep.Meter.Acknowledge(rc.AckSeq)
			}
			// Warm the arena, the scratches and the cached headers for both shapes.
			for w := 0; w < 3; w++ {
				if _, err := dep.Infer(batch[0]); err != nil {
					t.Fatal(err)
				}
			}
			if got := testing.AllocsPerRun(200, func() {
				if _, err := dep.Infer(batch[0]); err != nil {
					t.Fatal(err)
				}
			}); got > inferAllocs {
				t.Errorf("%s/%s: Infer allocates %v per call, pinned at %d", shape.name, v.name, got, inferAllocs)
			}
			for w := 0; w < 3; w++ {
				dep.InferBatch(batch)
			}
			if got := testing.AllocsPerRun(200, func() { dep.InferBatch(batch) }); got > inferBatchAllocs {
				t.Errorf("%s/%s: InferBatch(16) allocates %v per call, pinned at %d", shape.name, v.name, got, inferBatchAllocs)
			}
		}
	}
}

// Amortized growth of the meter's unsettled log rounds to zero.
const (
	inferAllocs      = 0
	inferBatchAllocs = 1
)

// TestSyncTelemetryAllocationPin: a telemetry sync over the conformance
// fleet, one query per deployment since the last, allocates a fixed count.
// Each record's feature summaries are one allocation, and the uplink is
// sized without encoding a record. One worker keeps the engine's fan-out
// out of the count.
func TestSyncTelemetryAllocationPin(t *testing.T) {
	f := newConformanceFixtureWith(t, Config{VendorKey: []byte("conformance-key-0123456789abcdef"), Seed: 9, MinCohort: 1, Workers: 1})
	deps := deployGen(t, f, f.publishGen(t), 1_000_000, nil)
	x := f.ds.X.Data[:f.es]
	sync := func() {
		for _, d := range deps {
			if _, err := d.Infer(x); err != nil {
				t.Fatal(err)
			}
		}
		if recs, _, err := f.p.SyncTelemetry(); err != nil || recs != len(deps) {
			t.Fatalf("SyncTelemetry flushed %d records (err %v), want %d", recs, err, len(deps))
		}
	}
	for w := 0; w < 3; w++ {
		sync()
	}
	if got := testing.AllocsPerRun(200, sync); got != syncTelemetryAllocs {
		t.Errorf("SyncTelemetry over %d deployments allocates %v per call, pinned at %d", len(deps), got, syncTelemetryAllocs)
	}
}

// syncTelemetryAllocs is three for the sorted deployment list, four for the
// engine's fan-out (result and error slices, two closures) and two per
// deployment: the record's feature summaries and the buffer slice it is
// queued in. Amortized growth of the aggregator's cohorts and the meter's
// log rounds to zero.
const syncTelemetryAllocs = 21

// servePipeline builds serve_single's modules for the fixture: a
// normalize pre-module over the dataset's per-feature mean and spread, and
// an argmax post-module.
func servePipeline(t *testing.T, f *conformanceFixture) (pre, post *procvm.Module) {
	t.Helper()
	means, stds := make([]float32, f.es), make([]float32, f.es)
	for i := range means {
		means[i], stds[i] = float32(i)*0.25-0.5, 1+float32(i)*0.5
	}
	pre, err := procvm.NewBuilder("normalize").Input().Normalize(means, stds).Build()
	if err != nil {
		t.Fatal(err)
	}
	if post, err = procvm.NewBuilder("label").Input().ArgMax().Build(); err != nil {
		t.Fatal(err)
	}
	return pre, post
}

// TestPostprocessLabelMustBeAClassIndex serves behind post-modules whose
// scalar is not always a class index. Go leaves int(x) for a NaN, an
// infinity or an out-of-range x to the architecture, so such a query must
// fail alone, counted in window health, while every other query gets its
// scalar as the label: here the square root of the logits' sum, NaN where
// the sum is negative, and a scalar past 2³¹ on every query.
func TestPostprocessLabelMustBeAClassIndex(t *testing.T) {
	f := newConformanceFixture(t)
	f.publishGen(t)
	v := conformanceVariants()[0]
	deploy := func(post *procvm.Module) *Deployment {
		t.Helper()
		if err := procvm.Validate(post); err != nil {
			t.Fatal(err)
		}
		cfg := v.policy()
		cfg.PrepaidQueries, cfg.Post = 1000, post
		dep, err := f.p.Deploy(v.deviceID, "conf", cfg)
		if err != nil {
			t.Fatal(err)
		}
		return dep
	}
	// expect serves one row and checks it failed alone or got label want.
	expect := func(dep *Deployment, r int, fails bool, want int) {
		t.Helper()
		x := f.ds.X.Data[r*f.es : (r+1)*f.es]
		before := snapshotServing(dep)
		res, err := dep.Infer(x)
		after := snapshotServing(dep)
		switch {
		case fails && (err == nil || after.failed != before.failed+1):
			t.Fatalf("row %d: label %d, err %v, failures %d -> %d; want the query to fail alone", r, res.Label, err, before.failed, after.failed)
		case !fails && (err != nil || res.Label != want):
			t.Fatalf("row %d: label %d, err %v; want label %d", r, res.Label, err, want)
		}
	}

	in, sum, sqrt := byte(procvm.OpInput), byte(procvm.OpSum), byte(procvm.OpSqrt)
	dep := deploy(&procvm.Module{Name: "root-sum", Code: []byte{in, sum, sqrt}})
	var failed, served int
	for r := 0; r < 64; r++ {
		var sum float64
		for _, v := range dep.ReferenceLogits(f.ds.X.Data[r*f.es : (r+1)*f.es]) {
			sum += float64(v)
		}
		s := float32(sum)
		if s < 0 {
			failed++
		} else {
			served++
		}
		expect(dep, r, s < 0, int(float32(math.Sqrt(float64(s)))))
	}
	t.Logf("%d rows failed, %d served", failed, served)
	if failed == 0 || served == 0 {
		t.Fatalf("%d rows failed and %d were served: the fixture no longer exercises both", failed, served)
	}

	vmax, abs, push, add := byte(procvm.OpMax), byte(procvm.OpAbs), byte(procvm.OpPushScalar), byte(procvm.OpAdd)
	dep = deploy(&procvm.Module{Name: "huge", Scalars: []float32{1 << 31}, Code: []byte{in, vmax, abs, push, 0, 0, add}})
	expect(dep, 0, true, 0)
}

// TestSharedModulesServeConcurrently serves from 8 goroutines through
// deployments that share one pre-module and one compiled image. Each
// deployment runs its modules in its own scratch and the compiled model in
// its arena slot's, so every label is the argmax of ReferenceLogits on the
// pre-module's features, and neither a module nor a caller's input is
// written. It is a test of the memory model: run it under -race.
func TestSharedModulesServeConcurrently(t *testing.T) {
	f := newConformanceFixtureWith(t, Config{VendorKey: []byte("shared-modules-key-0123456789abc"), Seed: 9, MinCohort: 1, Workers: 4})
	f.publishGen(t)
	pre, post := servePipeline(t, f)
	var deps []*Deployment
	for _, p := range device.StandardProfiles() {
		for _, id := range []string{p.Name + "-00", p.Name + "-01"} {
			cfg := DeployConfig{Policy: selector.Policy{Kinds: []string{registry.KindProcVM}}, PrepaidQueries: 1 << 20, Pre: pre, Post: post}
			if dep, err := f.p.Deploy(id, "conf", cfg); err == nil {
				deps = append(deps, dep)
			}
		}
	}
	t.Logf("the compiled variant serves %d devices", len(deps))
	if len(deps) < 2 {
		t.Fatalf("the compiled variant deployed to %d devices, want at least 2", len(deps))
	}
	compiled := deps[0].CompiledModule()
	for _, dep := range deps {
		if dep.CompiledModule() != compiled {
			t.Fatalf("%s serves its own copy of the compiled module", dep.DeviceID)
		}
	}
	preDigest, modDigest := pre.Digest(), compiled.Digest()

	const rows = 32
	in := f.ds.X.Data[:rows*f.es]
	orig := slices.Clone(in)
	batch, want := make([][]float32, rows), make([]int, rows)
	for r := range batch {
		batch[r] = in[r*f.es : (r+1)*f.es]
		res, err := procvm.NewRuntime(procvm.CapSensor).Run(pre, batch[r])
		if err != nil {
			t.Fatal(err)
		}
		want[r] = argMax(deps[0].ReferenceLogits(res.Output.Vec))
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(dep *Deployment) {
			defer wg.Done()
			for it := 0; it < 20; it++ {
				r := it % rows
				if res, err := dep.Infer(batch[r]); err != nil || res.Label != want[r] {
					t.Errorf("%s row %d: label %d, err %v; want %d", dep.DeviceID, r, res.Label, err, want[r])
					return
				}
				for r, o := range dep.InferBatch(batch) {
					if o.Err != nil || o.Result.Label != want[r] {
						t.Errorf("%s batch row %d: label %d, err %v; want %d", dep.DeviceID, r, o.Result.Label, o.Err, want[r])
						return
					}
				}
			}
		}(deps[g%len(deps)])
	}
	wg.Wait()
	if pre.Digest() != preDigest || compiled.Digest() != modDigest {
		t.Error("serving wrote into a shared module")
	}
	if !slices.Equal(in, orig) {
		t.Error("serving wrote into the caller's input rows")
	}
}
