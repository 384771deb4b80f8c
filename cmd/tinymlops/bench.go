package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"tinymlops/internal/benchfmt"
	"tinymlops/internal/benchsuite"
)

// cmdBench runs the tracked benchmark suite. Without -check it rewrites
// the committed BENCH_<area>.json snapshots (the trajectory's new
// baseline); with -check it diffs the fresh run against them and fails on
// any regression, which is what CI runs on every push.
func cmdBench(w io.Writer, args []string) error {
	fs := newFlagSet("bench")
	dir := fs.String("dir", ".", "directory holding the BENCH_<area>.json snapshots")
	area := fs.String("area", "all", "suite to run: all, serving, offload, fed, swarm, protect")
	check := fs.Bool("check", false, "diff against committed snapshots instead of rewriting them")
	tol := fs.Float64("tolerance", 0.25, "fractional ns/op slack before -check fails (allocs/op gets 0.1%)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	areas := benchsuite.Areas()
	names := make([]string, 0, len(areas))
	for name := range areas {
		if *area == "all" || *area == name {
			names = append(names, name)
		}
	}
	if len(names) == 0 {
		return fmt.Errorf("unknown area %q", *area)
	}
	sort.Strings(names)

	var regressions []benchfmt.Regression
	for _, name := range names {
		fmt.Fprintf(w, "== %s ==\n", name)
		report := benchsuite.Report(name, areas[name])
		for _, e := range report.Entries {
			fmt.Fprintf(w, "  %-28s %12.0f ns/op %8d B/op %6d allocs/op\n",
				e.Name, e.NsPerOp, e.BytesPerOp, e.AllocsPerOp)
			for _, k := range sortedMetricKeys(e.Metrics) {
				fmt.Fprintf(w, "  %-28s %12.0f %s\n", "", e.Metrics[k], k)
			}
		}
		path := filepath.Join(*dir, "BENCH_"+name+".json")
		if !*check {
			if err := report.WriteFile(path); err != nil {
				return err
			}
			fmt.Fprintf(w, "  wrote %s\n", path)
			continue
		}
		base, err := benchfmt.ReadFile(path)
		if err != nil {
			return fmt.Errorf("no committed baseline for %s (run `tinymlops bench` to create it): %w", name, err)
		}
		regs := benchfmt.Diff(base, report, *tol)
		for _, g := range regs {
			fmt.Fprintf(os.Stderr, "  REGRESSION %s\n", g)
		}
		if len(regs) == 0 {
			fmt.Fprintf(w, "  ok: within +%.0f%% ns/op of baseline, no new allocations\n", *tol*100)
		}
		regressions = append(regressions, regs...)
	}
	if len(regressions) > 0 {
		return fmt.Errorf("%d benchmark regression(s) vs committed baseline", len(regressions))
	}
	return nil
}

func sortedMetricKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
