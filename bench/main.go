// Command bench is the repository's end-to-end benchmark: it builds the
// platform through its public API, drives one of six lifecycle workloads in
// a closed loop, checks every answer, and prints every metric by name with
// its unit. BENCHMARK.json at the repository root is its contract; README.md
// beside this file explains the workloads and the metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

// defaultSeconds is the timed pass length; BENCHMARK.json's run_seconds
// repeats it and the tests hold the two together.
const defaultSeconds = 18

// benchProcs is the GOMAXPROCS the benchmark runs at: one processor, so the
// platform's goroutines (collector, cloud dispatchers, settlement server,
// engine workers; Config.Workers stays 0 and follows it) take turns with the
// one client on one thread, as on a single-core device. The box gives the
// benchmark two processors of a shared host. Filled by the harness, each is
// slowed by the neighbours on its own, hand-offs between them cost a thread
// wake-up whose price is the host scheduler's (a lone caller's 16-row batch
// took 460–630 µs with the parallel matmul waking the second processor, 470–
// 510 µs without), and a number that needs both is as steady as the slower
// one. On one processor the wall clock reads the work the program does.
const benchProcs = 1

// workloadNames lists the six workloads in the order "-workload all" runs
// them.
var workloadNames = []string{"serve_burst", "serve_single", "serve_offload", "ota_rollout", "fed_round", "settle"}

func newWorkload(name string, in *inputs, sz sizing) (workload, error) {
	switch name {
	case "serve_burst":
		return newServe(in, sz, true), nil
	case "serve_single":
		return newServe(in, sz, false), nil
	case "serve_offload":
		return newServeOffload(in, sz), nil
	case "ota_rollout":
		return newOTARollout(in, sz), nil
	case "fed_round":
		return newFedRound(in, sz), nil
	case "settle":
		return newSettle(in, sz), nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is everything one run of one workload measured. EndToEnd holds the
// eight end-to-end metrics; PerLayer is filled by traced runs only.
type result struct {
	Workload     string            `json:"workload"`
	Seed         uint64            `json:"seed"`
	Traced       bool              `json:"traced"`
	Correct      bool              `json:"correct"`
	Attempted    int               `json:"attempted"`
	Failed       int               `json:"failed"`
	FirstError   string            `json:"first_error,omitempty"`
	Samples      int               `json:"samples"`
	QuietSamples int               `json:"quiet_samples"`
	InputsDigest string            `json:"inputs_digest"`
	Dropped      []string          `json:"dropped_profiles,omitempty"`
	EndToEnd     map[string]metric `json:"end_to_end"`
	// Spread is each timed end-to-end metric's spread over the ten tenths
	// of its own run — what -compare calls a metric unresolved by.
	Spread map[string]float64 `json:"spread"`
	// SliceThroughput is the timed pass slice by slice and TenthP50US its
	// median op tenth by tenth, so that a slow phase of the machine can be
	// told from a slow program.
	SliceThroughput []float64         `json:"slice_throughput_per_s"`
	TenthP50US      []float64         `json:"tenth_op_p50_us"`
	PerLayer        map[string]metric `json:"per_layer,omitempty"`
}

// report is what "-workload all" prints and "-compare" reads.
type report struct {
	Env       environment       `json:"env"`
	Workloads map[string]result `json:"workloads"`
}

type environment struct {
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Clients    int     `json:"clients"`
	Seconds    float64 `json:"seconds"`
}

func currentEnv(sz sizing) environment {
	env := environment{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: "unknown", Clients: sz.clients, Seconds: sz.seconds,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				env.Commit = s.Value
			}
		}
	}
	return env
}

// replayPanic carries a layer-replay failure out of the closures it
// happens in; runWorkload reports it as an error.
type replayPanic struct{ err error }

// runWorkload runs one workload end to end. mutate, when non-nil, adjusts
// the freshly built workload before setup (the tests arm negative controls
// with it).
func runWorkload(name string, seed uint64, sz sizing, traced bool, outDir string, mutate func(workload)) (result, error) {
	t0 := time.Now()
	var in *inputs
	mk := func() workload {
		in = newInputs(seed)
		w, err := newWorkload(name, in, sz)
		if err != nil {
			panic(err) // name was validated by the caller
		}
		if mutate != nil {
			mutate(w)
		}
		return w
	}
	w, setups, err := timeSetups(mk, sz)
	if err != nil {
		return result{}, err
	}
	res, err := measure(name, w, in, sz, traced, outDir, t0)
	w.close()
	if err != nil {
		return result{}, err
	}
	w, again, err := timeSetups(mk, sz)
	if err != nil {
		return result{}, err
	}
	w.close()
	res.EndToEnd["setup_s"] = metric{quietQuartile(append(setups, again...)), "s"}
	return res, nil
}

// measure drives the count pass and the timed pass (and, traced, the layer
// replay) on a workload that has been set up.
func measure(name string, w workload, in *inputs, sz sizing, traced bool, outDir string, t0 time.Time) (result, error) {
	var count tally
	for c := 0; c < sz.clients; c++ {
		w.count(c, &count)
	}
	res := result{
		Workload: name, Seed: in.seed, Traced: traced, InputsDigest: in.sum(),
		EndToEnd: map[string]metric{}, Spread: map[string]float64{},
	}
	if o, ok := w.(*otaRollout); ok {
		res.Dropped = o.dropped
	}
	total := count
	finish := func(pass passResult) {
		total.ops += pass.ops
		total.failed += pass.failed
		if total.firstErr == nil {
			total.firstErr = pass.firstErr
		}
	}

	var timed passResult
	if !traced {
		timed = timedPass(w, sz, sz.seconds, false, t0)
		finish(timed)
	} else {
		// End-to-end numbers never come from a traced run: it splits the
		// pass in two, spans off then on, to price the tracing itself.
		plain := timedPass(w, sz, sz.seconds/2, false, t0)
		finish(plain)
		timed = timedPass(w, sz, sz.seconds/2, true, t0)
		finish(timed)
		lr := newLayerRun(t0, sz.probeReps)
		lr.count = count
		for _, s := range timed.spans {
			if k := s.Name[len("op."):]; lr.op[k] == 0 {
				lr.op[k] = medianUS(timed.spans, s.Name)
			}
		}
		if err := replay(w, lr); err != nil {
			return result{}, err
		}
		lr.set("harness.op_p95_us", float64(percentile(timed.lat, 0.95))/1e3)
		lr.set("harness.op_p99_us", float64(percentile(timed.lat, 0.99))/1e3)
		lr.set("harness.samples", float64(len(timed.lat)))
		lr.set("harness.trace_overhead_share", 1-ratio(timed.quietThr, plain.quietThr))
		lr.set("harness.drift_share", ratio(timed.tenthP50[passTenths-1]-timed.tenthP50[0], float64(percentile(timed.lat, 0.5))/1e3))
		lr.set("harness.alloc_bytes_per_unit", ratio(float64(timed.allocBytes), timed.units))
		lr.set("harness.gc_pause_share", ratio(float64(timed.gcPauseNS), float64(timed.wall)))
		res.PerLayer = map[string]metric{}
		for _, m := range perLayer {
			res.PerLayer[m.name] = metric{Value: lr.metrics[m.name], Unit: m.unit}
		}
		for name := range lr.metrics {
			if _, ok := res.PerLayer[name]; !ok {
				return result{}, fmt.Errorf("layer replay reported %q, which the benchmark does not name", name)
			}
		}
		if outDir != "" {
			spans := append([]span(nil), timed.spans...)
			for _, s := range lr.spans {
				if s.Parent >= 0 {
					s.Parent += len(timed.spans)
				}
				spans = append(spans, s)
			}
			if err := writeTrace(outDir, name, spans); err != nil {
				return result{}, err
			}
		}
	}

	res.Attempted, res.Failed = total.ops, total.failed
	res.Correct = total.failed == 0
	if total.firstErr != nil {
		res.FirstError = total.firstErr.Error()
	}
	res.Samples, res.QuietSamples = len(timed.lat), len(timed.quietLat)
	e := res.EndToEnd
	e["throughput_per_s"] = metric{timed.quietThr, "1/s"}
	e["op_p50_us"] = metric{float64(percentile(timed.quietLat, 0.5)) / 1e3, "us"}
	e["failed_share"] = metric{ratio(float64(total.failed), float64(total.ops)), "ratio"}
	e["allocs_per_unit"] = metric{ratio(float64(timed.mallocs), timed.units), "count"}
	e["vendor_bytes_per_unit"] = metric{ratio(count.vendorBytes, count.units), "B"}
	e["modelled_us_per_unit"] = metric{ratio(count.modelledUS, count.units), "us"}
	e["modelled_mj_per_unit"] = metric{ratio(count.energyJ*1e3, count.units), "mJ"}
	res.Spread["throughput_per_s"] = spread(timed.tenthThr[:])
	res.Spread["op_p50_us"] = spread(timed.tenthP50[:])
	res.SliceThroughput, res.TenthP50US = timed.sliceThr[:], timed.tenthP50[:]
	return res, nil
}

// replay runs the workload's layer replay, turning a failure inside its
// closures into an error.
func replay(w workload, lr *layerRun) (err error) {
	defer func() {
		if r := recover(); r != nil {
			rp, ok := r.(replayPanic)
			if !ok {
				panic(r)
			}
			err = fmt.Errorf("layer replay: %w", rp.err)
		}
	}()
	w.layers(lr)
	return nil
}

func must(err error) {
	if err != nil {
		panic(replayPanic{err})
	}
}

// contractLine is the last line the benchmark's contract asks for: the
// metrics BENCHMARK.json names for this kind of run, and nothing else.
func contractLine(res result) ([]byte, error) {
	metrics := map[string]metric{}
	if res.Traced {
		metrics = res.PerLayer
	} else {
		for _, m := range endToEnd {
			if m.bound > 0 {
				metrics[m.name] = res.EndToEnd[m.name]
			}
		}
	}
	return json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, metrics})
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, fullSizing, nil)) }

// run is the command. size and mutate are fullSizing and nil outside the
// tests, which shrink the run and arm negative controls with them.
func run(args []string, stdout, stderr io.Writer, size func(seconds float64) sizing, mutate func(workload)) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: one of the six, or \"all\"")
	seed := fs.Uint64("seed", 1, "seed every generated input derives from")
	seconds := fs.Float64("seconds", defaultSeconds, "timed pass length")
	clients := fs.Int("clients", 0, "closed-loop client goroutines (0 = the benchmark's own, one)")
	procs := fs.Int("procs", benchProcs, "GOMAXPROCS for the run (0 = the Go default, every processor)")
	trace := fs.Int("trace", 0, "1 runs the traced pass and the layer replay and reports the per-layer metrics")
	out := fs.String("out", "", "directory for <workload>.json and <workload>.trace.json (nothing is written when empty)")
	compare := fs.Bool("compare", false, "compare two \"-workload all\" reports: -compare a.json b.json")
	spec := fs.String("spec", "BENCHMARK.json", "benchmark contract, for -compare's bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two report files")
			return 2
		}
		return compareReports(fs.Arg(0), fs.Arg(1), *spec, stdout, stderr)
	}
	if *seconds <= 0 || *clients < 0 || *procs < 0 || (*trace != 0 && *trace != 1) || fs.NArg() != 0 {
		fmt.Fprintln(stderr, "bench: want -workload <name> -seed <n> [-seconds <s>] [-clients <c>] [-procs <p>] [-trace 0|1] [-out <dir>]")
		return 2
	}
	if *procs > 0 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(*procs))
	}
	names := []string{*name}
	if *name == "all" {
		names = workloadNames
	}
	sz := size(*seconds)
	if *clients > 0 {
		sz.clients = *clients
	}
	rep := report{Env: currentEnv(sz), Workloads: map[string]result{}}
	code := 0
	for _, n := range names {
		if _, err := newWorkload(n, newInputs(*seed), sz); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		res, err := runWorkload(n, *seed, sz, *trace == 1, *out, mutate)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", n, err)
			return 1
		}
		if !res.Correct {
			fmt.Fprintf(stderr, "bench: %s: %d of %d ops failed; first: %s\n", n, res.Failed, res.Attempted, res.FirstError)
			code = 1
		}
		rep.Workloads[n] = res
		if *out != "" {
			if err := writeJSON(filepath.Join(*out, n+".json"), res); err != nil {
				fmt.Fprintln(stderr, "bench:", err)
				return 1
			}
		}
	}
	if *name == "all" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", data)
		return code
	}
	res := rep.Workloads[*name]
	full, err := json.MarshalIndent(struct {
		Env environment `json:"env"`
		result
	}{rep.Env, res}, "", "  ")
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	line, err := contractLine(res)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	// The full result goes to stderr; the last line of stdout is the
	// contract's.
	fmt.Fprintf(stderr, "%s\n", full)
	fmt.Fprintf(stdout, "%s\n", line)
	return code
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
