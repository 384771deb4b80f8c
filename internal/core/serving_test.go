package core

import (
	"strings"
	"testing"

	"tinymlops/internal/quant"
)

// deployFiveKinds deploys every row of the conformance variant matrix
// against a freshly published generation and returns the deployments in
// matrix order.
func deployFiveKinds(t *testing.T, f *conformanceFixture, quota uint64) []*Deployment {
	t.Helper()
	gen := f.publishGen(t)
	var deps []*Deployment
	for _, v := range conformanceVariants() {
		cfg := v.policy()
		cfg.PrepaidQueries = quota
		cfg.Calibration = f.ds
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
// device time spent where the executor declares its width — and leave the
// next query, single or batched, untouched.
func TestWrongWidthQueryFailsAloneOnEveryKind(t *testing.T) {
	f := newConformanceFixtureWith(t, Config{
		VendorKey: []byte("wrong-width-key-0123456789abcdef"), Seed: 9, MinCohort: 1, VerifiedBilling: true,
	})
	deps := deployFiveKinds(t, f, 100)
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
		declared := dep.img.run.InputShape() != nil
		if declared && after.inferences != before.inferences {
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
	deps := deployFiveKinds(t, f, 100)
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
// deployment-level serving calls (the nn and quant packages pin only their
// kernels). The pipeline allocates nothing, and since the meter hashes a
// charge on its stack neither does the charge: what remains is the result
// slice InferBatch returns.
func TestServingAllocationPins(t *testing.T) {
	f := newConformanceFixture(t)
	deps := deployFiveKinds(t, f, 1_000_000)
	batch := make([][]float32, 16)
	for i := range batch {
		batch[i] = f.ds.X.Data[i*f.es : (i+1)*f.es]
	}
	for i, v := range conformanceVariants() {
		if v.wantKind != "" || v.wantMark || (v.wantExec != quant.Float32 && v.wantExec != quant.Int8 && v.wantExec != quant.Int4) {
			continue
		}
		dep := deps[i]
		// Warm the arena, the scratch and the cached headers for both shapes.
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
			t.Errorf("%s: Infer allocates %v per call, pinned at %d", v.name, got, inferAllocs)
		}
		for w := 0; w < 3; w++ {
			dep.InferBatch(batch)
		}
		if got := testing.AllocsPerRun(200, func() { dep.InferBatch(batch) }); got > inferBatchAllocs {
			t.Errorf("%s: InferBatch(16) allocates %v per call, pinned at %d", v.name, got, inferBatchAllocs)
		}
	}
}

// Amortized growth of the meter's unsettled log rounds to zero.
const (
	inferAllocs      = 0
	inferBatchAllocs = 1
)
