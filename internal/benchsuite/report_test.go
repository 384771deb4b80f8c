package benchsuite

import (
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

func sampleReport(nsScale float64, allocs int64) *Report {
	return newReport("serving", []Entry{
		{Name: "InferBatchFloat32", Iters: 1000, NsPerOp: 1000 * nsScale, BytesPerOp: 0, AllocsPerOp: allocs},
		{Name: "InferBatchInt8", Iters: 1000, NsPerOp: 800 * nsScale, BytesPerOp: 0, AllocsPerOp: allocs},
	})
}

func TestReportRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_serving.json")
	r := sampleReport(1, 0)
	if err := r.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Area != r.Area || got.Go != r.Go || len(got.Entries) != len(r.Entries) {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, r)
	}
	for i := range r.Entries {
		if !reflect.DeepEqual(got.Entries[i], r.Entries[i]) {
			t.Fatalf("entry %d: %+v vs %+v", i, got.Entries[i], r.Entries[i])
		}
	}
}

func TestReportRoundTripPreservesMetrics(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_fed.json")
	r := newReport("fed", []Entry{
		{Name: "HierRound", NsPerOp: 5000, Metrics: map[string]float64{"cloud-uplink-B/op": 1234}},
	})
	if err := r.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Entries[0].Metrics["cloud-uplink-B/op"] != 1234 {
		t.Fatalf("metrics lost in round trip: %+v", got.Entries[0])
	}
}

func TestDiffPassesWithinTolerance(t *testing.T) {
	base := sampleReport(1, 0)
	cur := sampleReport(1.2, 0) // +20% < 25% tolerance
	if regs := Diff(base, cur, 0.25); len(regs) != 0 {
		t.Fatalf("unexpected regressions: %v", regs)
	}
	faster := sampleReport(0.5, 0) // improvements never trip the gate
	if regs := Diff(base, faster, 0.25); len(regs) != 0 {
		t.Fatalf("improvement flagged as regression: %v", regs)
	}
}

// TestDiffTripsOnInjectedSlowdown is the gate's own acceptance test: a
// synthetic +50% ns/op slowdown must produce a ns/op regression.
func TestDiffTripsOnInjectedSlowdown(t *testing.T) {
	base := sampleReport(1, 0)
	cur := sampleReport(1.5, 0)
	regs := Diff(base, cur, 0.25)
	if len(regs) != 2 {
		t.Fatalf("want 2 ns/op regressions, got %v", regs)
	}
	for _, g := range regs {
		if g.Kind != "ns/op" {
			t.Fatalf("want ns/op kind, got %+v", g)
		}
		if g.String() == "" {
			t.Fatal("empty regression string")
		}
	}
}

func TestDiffTripsOnAnyAllocIncrease(t *testing.T) {
	base := sampleReport(1, 0)
	cur := sampleReport(1, 1) // same speed, one new alloc
	regs := Diff(base, cur, 0.25)
	if len(regs) != 2 || regs[0].Kind != "allocs/op" {
		t.Fatalf("want allocs/op regressions, got %v", regs)
	}
}

// TestDiffAllocSlackScalesWithBaseline pins the allocs gate's 0.1% slack:
// a zero- or low-alloc hot path keeps its zero-tolerance gate (tested
// above), while a fleet-scale entry with hundreds of thousands of allocs
// tolerates the ±few-alloc jitter GC-timed pool reuse introduces — but
// still trips on anything past the slack.
func TestDiffAllocSlackScalesWithBaseline(t *testing.T) {
	base := sampleReport(1, 200_000)
	if regs := Diff(base, sampleReport(1, 200_003), 0.25); len(regs) != 0 {
		t.Fatalf("within-slack alloc jitter flagged: %v", regs)
	}
	regs := Diff(base, sampleReport(1, 200_201), 0.25)
	if len(regs) != 2 || regs[0].Kind != "allocs/op" {
		t.Fatalf("past-slack alloc growth not flagged: %v", regs)
	}
}

func TestDiffFlagsShapeChanges(t *testing.T) {
	base := sampleReport(1, 0)
	cur := newReport("serving", []Entry{
		base.Entries[0],
		{Name: "InferBatchInt4", NsPerOp: 700},
	})
	regs := Diff(base, cur, 0.25)
	kinds := map[string]string{}
	for _, g := range regs {
		kinds[g.Name] = g.Kind
	}
	if kinds["InferBatchInt8"] != "missing" || kinds["InferBatchInt4"] != "unbaselined" {
		t.Fatalf("shape changes not flagged: %v", regs)
	}
}

func TestFromBenchmarkResult(t *testing.T) {
	r := testing.BenchmarkResult{N: 100, T: 200 * time.Microsecond, MemAllocs: 300, MemBytes: 4000}
	e := fromBenchmarkResult("X", r)
	if e.Name != "X" || e.Iters != 100 || e.NsPerOp != 2000 || e.AllocsPerOp != 3 || e.BytesPerOp != 40 {
		t.Fatalf("conversion wrong: %+v", e)
	}
	if e.Metrics != nil {
		t.Fatalf("no-Extra result grew metrics: %+v", e.Metrics)
	}
	r.Extra = map[string]float64{"cloud-uplink-B/op": 99.5}
	e = fromBenchmarkResult("X", r)
	if e.Metrics["cloud-uplink-B/op"] != 99.5 {
		t.Fatalf("Extra not carried into Metrics: %+v", e)
	}
}

// TestDiffGatesCustomMetrics pins the metric gate: a tracked unit (the fed
// suite's cloud-uplink bytes/op) regressing beyond the ns/op tolerance
// trips, improvements pass, and a metric vanishing from the current run is
// flagged like a missing benchmark.
func TestDiffGatesCustomMetrics(t *testing.T) {
	withMetric := func(v float64) *Report {
		return newReport("fed", []Entry{
			{Name: "HierRound", NsPerOp: 1000, Metrics: map[string]float64{"cloud-uplink-B/op": v}},
		})
	}
	base := withMetric(1000)
	if regs := Diff(base, withMetric(1200), 0.25); len(regs) != 0 {
		t.Fatalf("within-tolerance metric flagged: %v", regs)
	}
	if regs := Diff(base, withMetric(500), 0.25); len(regs) != 0 {
		t.Fatalf("improved metric flagged: %v", regs)
	}
	regs := Diff(base, withMetric(2000), 0.25)
	if len(regs) != 1 || regs[0].Kind != "metric" || regs[0].Name != "HierRound/cloud-uplink-B/op" {
		t.Fatalf("doubled metric not gated: %v", regs)
	}
	if regs[0].String() == "" {
		t.Fatal("empty metric regression string")
	}
	bare := newReport("fed", []Entry{{Name: "HierRound", NsPerOp: 1000}})
	regs = Diff(base, bare, 0.25)
	if len(regs) != 1 || regs[0].Kind != "missing" {
		t.Fatalf("dropped metric not flagged: %v", regs)
	}
}
