package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"
)

// smokeSizing is the benchmark shrunk until all six workloads, traced and
// untraced, run in a few seconds.
func smokeSizing(seconds float64) sizing {
	return sizing{
		clients: 2, seconds: seconds, setups: 1,
		pool:          32,
		otaPerProfile: 2, otaCanary: 2, otaCountOps: 1,
		fedClients: 48, fedAggs: 6, fedRounds: 4,
		settleDevices: 2, settleCount: 1, settleW: 128,
		probeReps: 3,
	}
}

const smokeSeconds = 0.2

// smokeRuns caches runs by (workload, seed, workers, traced), so the tests
// that only read results share them. No test here runs in parallel.
var smokeRuns = map[string]result{}

func smoke(t *testing.T, name string, seed uint64, workers int, traced bool) result {
	t.Helper()
	key := fmt.Sprintf("%s/%d/%d/%v", name, seed, workers, traced)
	if res, ok := smokeRuns[key]; ok {
		return res
	}
	sz := smokeSizing(smokeSeconds)
	sz.workers = workers
	res, err := runWorkload(name, seed, sz, traced, "", nil)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	smokeRuns[key] = res
	return res
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	var spec benchmarkSpec
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestBenchmarkJSONMatchesHarness holds BENCHMARK.json and the harness's
// own tables together, and the file inside its contract's limits.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	spec := loadSpec(t)
	if spec.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the harness defaults to %d", spec.RunSeconds, defaultSeconds)
	}
	if len(spec.Workloads) > 8 || len(spec.EndToEnd) > 16 || len(spec.PerLayer) > 128 {
		t.Errorf("%d workloads, %d end-to-end, %d per-layer metrics exceed 8/16/128", len(spec.Workloads), len(spec.EndToEnd), len(spec.PerLayer))
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("workloads %v, the harness has %v", names, workloadNames)
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	check := func(kind string, got []specMetric, want []metricSpec) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the harness", kind, len(got), len(want))
			return
		}
		seen := map[string]bool{}
		for i, m := range got {
			w := want[i]
			if m.Name != w.name || m.Unit != w.unit || m.Better != w.better || m.Bound != w.bound {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the harness %+v", kind, i, m, w)
			}
			if !valid.MatchString(m.Name) || seen[m.Name] {
				t.Errorf("%s: name %q is invalid or repeated", kind, m.Name)
			}
			seen[m.Name] = true
		}
	}
	var gated []metricSpec
	for _, m := range endToEnd {
		if m.bound > 0 {
			if m.bound > 0.25 {
				t.Errorf("%s: bound %v above 0.25", m.name, m.bound)
			}
			gated = append(gated, m)
		}
	}
	check("end_to_end", spec.EndToEnd, gated)
	unbounded := append([]metricSpec(nil), perLayer...)
	check("per_layer", spec.PerLayer, unbounded)
	if gated[0].name != "setup_s" || gated[0].unit != "s" || gated[0].better != "lower" {
		t.Errorf("setup_s must be a gated end-to-end metric in seconds, lower better: %+v", gated[0])
	}
}

// TestSmokeEveryWorkload runs each workload untraced and traced and
// requires every metric BENCHMARK.json names, with its unit, no failed op,
// and a contract line carrying exactly the named metrics.
func TestSmokeEveryWorkload(t *testing.T) {
	spec := loadSpec(t)
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			res := smoke(t, name, 7, 0, traced)
			if !res.Correct || res.Failed != 0 || res.EndToEnd["failed_share"].Value != 0 {
				t.Fatalf("%s traced=%v: %d of %d ops failed: %s", name, traced, res.Failed, res.Attempted, res.FirstError)
			}
			if res.Attempted < 1 || res.Samples < 1 {
				t.Errorf("%s: attempted %d, samples %d", name, res.Attempted, res.Samples)
			}
			for _, m := range endToEnd {
				got, ok := res.EndToEnd[m.name]
				if !ok || got.Unit != m.unit {
					t.Errorf("%s: end-to-end %s missing or in %q, want %q", name, m.name, got.Unit, m.unit)
				}
			}
			line, err := contractLine(res)
			if err != nil {
				t.Fatal(err)
			}
			var out struct {
				Correct   bool
				Attempted int
				Failed    int
				Metrics   map[string]metric
			}
			if err := json.Unmarshal(line, &out); err != nil {
				t.Fatal(err)
			}
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			if len(out.Metrics) != len(want) {
				t.Errorf("%s traced=%v: contract line has %d metrics, BENCHMARK.json names %d", name, traced, len(out.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := out.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s traced=%v: %s missing or in %q, want %q", name, traced, m.Name, got.Unit, m.Unit)
				}
				if !traced && got.Value == 0 {
					t.Errorf("%s: end-to-end %s is 0", name, m.Name)
				}
			}
			if traced && res.PerLayer["core.self_us"].Value < 0 {
				t.Errorf("%s: core.self_us %v below zero", name, res.PerLayer["core.self_us"].Value)
			}
		}
	}
}

// TestLayersReported: every workload's traced run reaches a fair number of
// layers, and the shares the workloads were chosen by are measured. Their
// sizes are for the full benchmark to show (README.md), not for a smoke run
// a fiftieth its length.
func TestLayersReported(t *testing.T) {
	for _, name := range workloadNames {
		res := smoke(t, name, 7, 0, true)
		touched := 0
		for _, m := range res.PerLayer {
			if m.Value != 0 {
				touched++
			}
		}
		if touched < 10 {
			t.Errorf("%s: only %d per-layer metrics are non-zero", name, touched)
		}
		share := "harness.kernel_share"
		if name == "settle" {
			share = "harness.verify_share"
		}
		if res.PerLayer[share].Value <= 0 {
			t.Errorf("%s: %s is %v", name, share, res.PerLayer[share].Value)
		}
	}
}

// TestSeedDiscipline: one seed gives the same inputs and the same counted
// metrics on a second run, even at one worker against the default; another
// seed gives other inputs.
func TestSeedDiscipline(t *testing.T) {
	exact := []string{"vendor_bytes_per_unit", "modelled_us_per_unit", "modelled_mj_per_unit", "failed_share"}
	for _, name := range workloadNames {
		a := smoke(t, name, 7, 0, false)
		b := smoke(t, name, 7, 1, false)
		if a.InputsDigest != b.InputsDigest {
			t.Errorf("%s: inputs digest %s then %s for one seed", name, a.InputsDigest, b.InputsDigest)
		}
		for _, m := range exact {
			if a.EndToEnd[m].Value != b.EndToEnd[m].Value {
				t.Errorf("%s: %s = %v then %v for one seed", name, m, a.EndToEnd[m].Value, b.EndToEnd[m].Value)
			}
		}
		in := newInputs(8)
		w, err := newWorkload(name, in, smokeSizing(smokeSeconds))
		if err != nil {
			t.Fatal(err)
		}
		if err := w.setup(); err != nil {
			t.Fatal(err)
		}
		w.close()
		if in.sum() == a.InputsDigest {
			t.Errorf("%s: seeds 7 and 8 generate the same inputs", name)
		}
	}
}

// TestNegativeControls breaks what each checker checks and requires the
// checker to notice: a later change must not pass by breaking the check.
func TestNegativeControls(t *testing.T) {
	controls := []struct {
		workload string
		arm      func(workload)
		want     string
	}{
		{"serve_burst", func(w workload) { w.(*serve).hostile = true }, "label"},
		{"serve_single", func(w workload) { w.(*serve).hostile = true }, "label"},
		{"ota_rollout", func(w workload) { w.(*otaRollout).hostile = true }, "differs from registry bytes"},
		{"settle", func(w workload) { w.(*settle).hostile = true }, "settlement rejected"},
	}
	for _, c := range controls {
		res, err := runWorkload(c.workload, 7, smokeSizing(0.05), false, "", c.arm)
		if err != nil {
			t.Fatalf("%s: %v", c.workload, err)
		}
		if res.Correct || res.Failed == 0 || res.EndToEnd["failed_share"].Value <= 0 {
			t.Errorf("%s: the broken run passed (%d failed of %d)", c.workload, res.Failed, res.Attempted)
		}
		if !strings.Contains(res.FirstError, c.want) {
			t.Errorf("%s: first error %q, want it to mention %q", c.workload, res.FirstError, c.want)
		}
	}
	// And the command fails with it.
	var stdout, stderr bytes.Buffer
	args := []string{"-workload", "settle", "-seed", "7", "-seconds", "0.05"}
	if code := run(args, &stdout, &stderr, smokeSizing, controls[3].arm); code == 0 {
		t.Errorf("the command exited 0 on a rejected settlement; stderr: %s", stderr.String())
	}
	if !strings.Contains(stdout.String(), `"correct":false`) {
		t.Errorf("contract line does not say correct=false: %s", stdout.String())
	}
}

// TestCommandTraceAndFiles drives the command as the driver does, traced,
// and checks the trace it writes: spans of one op share an id and every
// child lies inside its parent. Nothing the run started may outlive it.
func TestCommandTraceAndFiles(t *testing.T) {
	before := runtime.NumGoroutine()
	dir := t.TempDir()
	for _, name := range workloadNames {
		var stdout, stderr bytes.Buffer
		args := []string{"--workload", name, "--seed", "3", "--seconds", "0.2", "--trace", "1", "-out", dir}
		if code := run(args, &stdout, &stderr, smokeSizing, nil); code != 0 {
			t.Fatalf("%s: exit %d: %s", name, code, stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var contract struct {
			Correct bool
			Metrics map[string]metric
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &contract); err != nil || !contract.Correct {
			t.Fatalf("%s: last stdout line is not a passing contract line (%v): %s", name, err, lines[len(lines)-1])
		}
		var spans []span
		if err := readJSON(filepath.Join(dir, name+".trace.json"), &spans); err != nil {
			t.Fatal(err)
		}
		children := 0
		for i, s := range spans {
			if s.End < s.Start {
				t.Fatalf("%s: span %d (%s) ends before it starts", name, i, s.Name)
			}
			if s.Parent < 0 {
				continue
			}
			children++
			p := spans[s.Parent]
			if s.Op != p.Op {
				t.Fatalf("%s: span %s has op %d, its parent %s op %d", name, s.Name, s.Op, p.Name, p.Op)
			}
			if s.Start < p.Start || s.End > p.End {
				t.Fatalf("%s: span %s [%d,%d] outside its parent %s [%d,%d]", name, s.Name, s.Start, s.End, p.Name, p.Start, p.End)
			}
		}
		if children == 0 && name != "fed_round" {
			t.Errorf("%s: the trace has no child spans", name)
		}
		if _, err := os.Stat(filepath.Join(dir, name+".json")); err != nil {
			t.Errorf("%s: no result file: %v", name, err)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		buf := make([]byte, 1<<16)
		t.Errorf("%d goroutines before the runs, %d after:\n%s", before, after, buf[:runtime.Stack(buf, true)])
	}
}

// TestSettleClosesItsListener: close must stop the settlement server.
func TestSettleClosesItsListener(t *testing.T) {
	s := newSettle(newInputs(5), smokeSizing(smokeSeconds))
	if err := s.setup(); err != nil {
		t.Fatal(err)
	}
	addr := s.srv.Addr()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("server not listening after setup: %v", err)
	}
	conn.Close()
	s.close()
	if conn, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
		conn.Close()
		t.Errorf("%s still accepts connections after close", addr)
	}
}

func TestCompareVerdicts(t *testing.T) {
	mk := func(seed uint64, thr, p50, vendor, thrSpread float64) result {
		return result{Seed: seed,
			EndToEnd: map[string]metric{
				"setup_s": {1, "s"}, "throughput_per_s": {thr, "1/s"}, "op_p50_us": {p50, "us"},
				"allocs_per_unit": {10, "count"}, "vendor_bytes_per_unit": {vendor, "B"},
				"failed_share": {0, "ratio"}, "modelled_us_per_unit": {5, "us"}, "modelled_mj_per_unit": {1, "mJ"},
			},
			Spread: map[string]float64{"throughput_per_s": thrSpread, "op_p50_us": 0.01},
		}
	}
	byName := map[string]metricSpec{}
	for _, m := range endToEnd {
		byName[m.name] = m
	}
	base := mk(1, 1000, 100, 64, 0.02)
	cases := []struct {
		metric string
		cand   result
		want   string
	}{
		{"throughput_per_s", mk(1, 1000, 100, 64, 0.02), "ok"},
		{"throughput_per_s", mk(1, 950, 100, 64, 0.02), "ok"},
		{"throughput_per_s", mk(1, 1200, 100, 64, 0.5), "ok"}, // better, however noisy
		{"throughput_per_s", mk(1, 700, 100, 64, 0.02), "worse"},
		{"throughput_per_s", mk(1, 850, 100, 64, 0.3), "unresolved"},
		{"op_p50_us", mk(1, 1000, 130, 64, 0.02), "worse"},
		{"vendor_bytes_per_unit", mk(1, 1000, 100, 65, 0.02), "worse"}, // exact for one seed
		{"vendor_bytes_per_unit", mk(2, 1000, 100, 65, 0.02), "ok"},    // bounded across seeds
		{"vendor_bytes_per_unit", mk(2, 1000, 100, 81, 0.02), "worse"},
	}
	for _, c := range cases {
		m := byName[c.metric]
		if _, got := verdict(m, m.bound, base, c.cand, base.Seed == c.cand.Seed); got != c.want {
			t.Errorf("%s %v → %v: verdict %q, want %q", c.metric, base.EndToEnd[c.metric].Value, c.cand.EndToEnd[c.metric].Value, got, c.want)
		}
	}

	dir := t.TempDir()
	write := func(name string, r result) string {
		rep := report{Workloads: map[string]result{}}
		for _, w := range workloadNames {
			rep.Workloads[w] = r
		}
		path := filepath.Join(dir, name)
		if err := writeJSON(path, rep); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a, same, slow := write("a.json", base), write("b.json", mk(1, 990, 101, 64, 0.02)), write("c.json", mk(1, 700, 100, 64, 0.02))
	spec := filepath.Join("..", "BENCHMARK.json")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-spec", spec, "-compare", a, same}, &stdout, &stderr, smokeSizing, nil); code != 0 {
		t.Errorf("comparing a run with its like exited %d:\n%s%s", code, stdout.String(), stderr.String())
	}
	stdout.Reset()
	if code := run([]string{"-spec", spec, "-compare", a, slow}, &stdout, &stderr, smokeSizing, nil); code != 1 {
		t.Errorf("comparing with a 30%% slower run exited %d:\n%s", code, stdout.String())
	}
	if !strings.Contains(stdout.String(), "worse") || !strings.Contains(stdout.String(), "0.7000") {
		t.Errorf("comparison does not show the ratio and the verdict:\n%s", stdout.String())
	}
}

func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := spread(v); got != 1 {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

func TestAddUnitsProratesAcrossSlices(t *testing.T) {
	var r clientRec
	const slice = 100
	r.addUnits(50, 250, slice, 20) // 50 in slice 0, 100 in slice 1, 50 in slice 2
	if r.units[0] != 5 || r.units[1] != 10 || r.units[2] != 5 {
		t.Errorf("units by slice = %v", r.units[:3])
	}
	r = clientRec{}
	r.addUnits(timedSlices*slice-50, timedSlices*slice+50, slice, 10) // half runs past the deadline
	if got := r.units[timedSlices-1]; got != 5 {
		t.Errorf("last slice got %v units, want the 5 inside the pass", got)
	}
}
