package benchsuite

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"testing"
)

// Entry is one benchmark's measured cost: the numbers a regression gate
// cares about, nothing else.
type Entry struct {
	// Name is the benchmark's suite-local name, e.g. "InferBatchInt4".
	Name string `json:"name"`
	// Iters is how many iterations the timing loop settled on.
	Iters int `json:"iters"`
	// NsPerOp is wall time per operation in nanoseconds.
	NsPerOp float64 `json:"ns_per_op"`
	// BytesPerOp is heap bytes allocated per operation.
	BytesPerOp int64 `json:"bytes_per_op"`
	// AllocsPerOp is heap allocations per operation. The gate treats any
	// increase as a regression: the serving hot path is zero-alloc by
	// construction, so a new allocation is a bug, not noise.
	AllocsPerOp int64 `json:"allocs_per_op"`
	// Metrics carries the benchmark's custom b.ReportMetric units —
	// e.g. the fed suite's "cloud-uplink-B/op". Lower is better for every
	// tracked metric; the gate applies the ns/op tolerance to each.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Report is one benchmark area's snapshot, annotated with enough
// provenance to judge whether two reports are comparable.
type Report struct {
	// Area names the suite ("serving", "offload").
	Area string `json:"area"`
	// Go, OS, and Arch record the toolchain and platform that produced
	// the numbers.
	Go   string `json:"go"`
	OS   string `json:"os"`
	Arch string `json:"arch"`
	// Entries is sorted by name for a stable, diffable encoding.
	Entries []Entry `json:"entries"`
}

// newReport builds a Report for the given area stamped with the current
// toolchain and platform, sorting entries by name.
func newReport(area string, entries []Entry) *Report {
	sorted := append([]Entry(nil), entries...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Name < sorted[j].Name })
	return &Report{
		Area: area, Go: runtime.Version(), OS: runtime.GOOS, Arch: runtime.GOARCH,
		Entries: sorted,
	}
}

// fromBenchmarkResult converts a testing.Benchmark result into an Entry.
func fromBenchmarkResult(name string, r testing.BenchmarkResult) Entry {
	e := Entry{
		Name:        name,
		Iters:       r.N,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		BytesPerOp:  r.AllocedBytesPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
	}
	if len(r.Extra) > 0 {
		e.Metrics = make(map[string]float64, len(r.Extra))
		for k, v := range r.Extra {
			e.Metrics[k] = v
		}
	}
	return e
}

// WriteFile writes the report as indented JSON with a trailing newline —
// the committed-snapshot form.
func (r *Report) WriteFile(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadFile loads a committed snapshot.
func ReadFile(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("benchsuite: %s: %w", path, err)
	}
	return &r, nil
}

// Regression is one way the current run is worse than (or incomparable
// to) the baseline.
type Regression struct {
	// Name is the offending benchmark.
	Name string
	// Kind is "ns/op", "allocs/op", "missing" (in the baseline but not
	// the current run), or "unbaselined" (in the current run but not the
	// baseline). The latter two force a deliberate baseline refresh
	// whenever the suite's shape changes.
	Kind string
	// Base and Cur are the compared values (zero when not applicable).
	Base, Cur float64
}

// String renders the regression for gate output.
func (g Regression) String() string {
	switch g.Kind {
	case "ns/op":
		return fmt.Sprintf("%s: ns/op regressed %.0f -> %.0f (%+.1f%%)",
			g.Name, g.Base, g.Cur, 100*(g.Cur-g.Base)/g.Base)
	case "allocs/op":
		return fmt.Sprintf("%s: allocs/op regressed %.0f -> %.0f", g.Name, g.Base, g.Cur)
	case "metric":
		return fmt.Sprintf("%s: regressed %.0f -> %.0f (%+.1f%%)",
			g.Name, g.Base, g.Cur, 100*(g.Cur-g.Base)/g.Base)
	case "missing":
		return fmt.Sprintf("%s: in baseline but not in current run", g.Name)
	default:
		return fmt.Sprintf("%s: not in committed baseline (refresh it with `tinymlops bench`)", g.Name)
	}
}

// Diff compares a current report against a committed baseline. nsTol is
// the fractional ns/op slack (0.25 = fail beyond +25%); allocations get
// 0.1% — zero in practice for hot-path entries (any count under 1000
// allocs/op rounds to no slack, so a zero-alloc baseline stays
// zero-alloc), while fleet-scale entries with hundreds of thousands of
// allocs tolerate the ±few-alloc jitter that pool reuse under GC timing
// introduces. Results are ordered by benchmark name.
func Diff(base, cur *Report, nsTol float64) []Regression {
	baseByName := make(map[string]Entry, len(base.Entries))
	for _, e := range base.Entries {
		baseByName[e.Name] = e
	}
	curByName := make(map[string]Entry, len(cur.Entries))
	for _, e := range cur.Entries {
		curByName[e.Name] = e
	}
	var regs []Regression
	for _, be := range base.Entries {
		ce, ok := curByName[be.Name]
		if !ok {
			regs = append(regs, Regression{Name: be.Name, Kind: "missing"})
			continue
		}
		if be.NsPerOp > 0 && ce.NsPerOp > be.NsPerOp*(1+nsTol) {
			regs = append(regs, Regression{Name: be.Name, Kind: "ns/op", Base: be.NsPerOp, Cur: ce.NsPerOp})
		}
		if ce.AllocsPerOp > be.AllocsPerOp+be.AllocsPerOp/1000 {
			regs = append(regs, Regression{
				Name: be.Name, Kind: "allocs/op",
				Base: float64(be.AllocsPerOp), Cur: float64(ce.AllocsPerOp),
			})
		}
		for key, bv := range be.Metrics {
			cv, ok := ce.Metrics[key]
			if !ok {
				regs = append(regs, Regression{Name: be.Name + "/" + key, Kind: "missing"})
				continue
			}
			if bv > 0 && cv > bv*(1+nsTol) {
				regs = append(regs, Regression{Name: be.Name + "/" + key, Kind: "metric", Base: bv, Cur: cv})
			}
		}
	}
	for _, ce := range cur.Entries {
		if _, ok := baseByName[ce.Name]; !ok {
			regs = append(regs, Regression{Name: ce.Name, Kind: "unbaselined"})
		}
	}
	sort.Slice(regs, func(i, j int) bool {
		if regs[i].Name != regs[j].Name {
			return regs[i].Name < regs[j].Name
		}
		return regs[i].Kind < regs[j].Kind
	})
	return regs
}
