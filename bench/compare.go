package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// benchmarkSpec is the part of BENCHMARK.json -compare needs.
type benchmarkSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// verdict judges metric m of one workload, base run against candidate run.
// A timed metric may worsen by its bound; one whose own slices spread wider
// than the bound cannot be resolved either way, unless it got better. A
// count must repeat exactly when both runs used the same seed, and stay
// within its bound otherwise.
func verdict(m metricSpec, bound float64, base, cand result, sameSeed bool) (ratio float64, v string) {
	a, b := base.EndToEnd[m.name].Value, cand.EndToEnd[m.name].Value
	if a == b {
		return 1, "ok"
	}
	if m.exact && (sameSeed || a == 0) {
		return b / a, "worse"
	}
	ratio = b / a
	worse := ratio - 1
	if m.better == "higher" {
		worse = 1 - ratio
	}
	switch {
	case worse <= 0:
		return ratio, "ok"
	case worse > bound:
		return ratio, "worse"
	case base.Spread[m.name] > bound || cand.Spread[m.name] > bound:
		return ratio, "unresolved"
	}
	return ratio, "ok"
}

// compareReports prints, per workload and end-to-end metric, both values,
// the ratio of the second to the first, the bound and the verdict. It
// returns 1 if any metric is worse.
func compareReports(basePath, candPath, specPath string, stdout, stderr io.Writer) int {
	var base, cand report
	var spec benchmarkSpec
	for path, v := range map[string]any{basePath: &base, candPath: &cand, specPath: &spec} {
		if err := readJSON(path, v); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
	}
	bounds := map[string]float64{}
	for _, m := range spec.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "workload\tmetric\t%s\t%s\tratio (base %s)\tbound\tverdict\n", basePath, candPath, basePath)
	code := 0
	for _, name := range workloadNames {
		a, okA := base.Workloads[name]
		b, okB := cand.Workloads[name]
		if !okA || !okB {
			fmt.Fprintf(tw, "%s\t-\t-\t-\t-\t-\tmissing\n", name)
			code = 1
			continue
		}
		for _, m := range endToEnd {
			ratio, v := verdict(m, bounds[m.name], a, b, a.Seed == b.Seed)
			if v == "worse" {
				code = 1
			}
			bound := fmt.Sprintf("%.2f", bounds[m.name])
			if m.exact && a.Seed == b.Seed {
				bound = "exact"
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g %s\t%.6g %s\t%.4f\t%s\t%s\n", name, m.name,
				a.EndToEnd[m.name].Value, m.unit, b.EndToEnd[m.name].Value, m.unit, ratio, bound, v)
		}
	}
	if err := tw.Flush(); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	return code
}
