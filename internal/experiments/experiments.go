// Package experiments regenerates every experiment table of the
// reproduction (E1–E11, see DESIGN.md §3). The paper is a position paper
// with no evaluation tables of its own; each experiment operationalizes a
// quantified claim from the prose and reports the measured shape. The
// cmd/experiments binary prints the tables; they hold counts and the
// modelled clock, and bench/run.sh measures the timings they leave out.
package experiments

import (
	"fmt"
	"io"
	"sort"
	"text/tabwriter"
)

// Experiment is one reproducible table generator.
type Experiment struct {
	// ID is the experiment identifier ("E1".."E11").
	ID string
	// Title summarizes the claim under test.
	Title string
	// Paper anchors the experiment in the paper.
	Paper string
	// Run writes the table to w. Implementations are deterministic for a
	// fixed build (all randomness is seeded).
	Run func(w io.Writer) error
}

// All returns every experiment in order.
func All() []Experiment {
	return []Experiment{
		{"E1", "Platform functionality coverage", "Fig. 1", RunE1},
		{"E2", "Per-device model variant selection", "§III-A", RunE2},
		{"E3", "Bit width × hardware support", "§III-A", RunE3},
		{"E4", "Edge observability: drift detection and telemetry cost", "§III-B", RunE4},
		{"E5", "Offline pay-per-query metering", "§III-C", RunE5},
		{"E6", "Federated learning: non-IID, compression, personalization", "§III-D", RunE6},
		{"E7", "Fragmented targets: compat matrix, portable VM, edge-cloud split", "§IV", RunE7},
		{"E8", "Watermark fidelity / robustness / capacity", "§V", RunE8},
		{"E9", "Model extraction and prediction poisoning", "§V", RunE9},
		{"E10", "Verifiable execution overhead", "§VI", RunE10},
		{"E11", "Encrypted model storage cost", "§V", RunE11},
	}
}

// ByID returns the experiment with the given ID.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// RunAll executes every experiment against w.
func RunAll(w io.Writer) error {
	for _, e := range All() {
		if err := RunOne(w, e); err != nil {
			return err
		}
	}
	return nil
}

// RunOne executes a single experiment with its banner.
func RunOne(w io.Writer, e Experiment) error {
	fmt.Fprintf(w, "\n================================================================\n")
	fmt.Fprintf(w, "%s — %s (%s)\n", e.ID, e.Title, e.Paper)
	fmt.Fprintf(w, "================================================================\n")
	if err := e.Run(w); err != nil {
		return fmt.Errorf("%s: %w", e.ID, err)
	}
	return nil
}

// table returns a tabwriter configured for the experiment output style.
func table(w io.Writer) *tabwriter.Writer {
	return tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
}

// sortedKeys returns map keys in stable order for deterministic tables.
func sortedKeys[M ~map[string]V, V any](m M) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
