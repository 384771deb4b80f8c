package experiments

import (
	"bytes"
	"os"
	"strings"
	"sync"
	"testing"
)

func TestRegistryComplete(t *testing.T) {
	all := All()
	if len(all) != 11 {
		t.Fatalf("registry has %d experiments, want 11", len(all))
	}
	for i, e := range all {
		want := "E" + string(rune('1'+i))
		if i >= 9 {
			want = "E1" + string(rune('0'+i-9))
		}
		if e.ID != want {
			t.Fatalf("experiment %d has ID %q, want %q", i, e.ID, want)
		}
		if e.Run == nil || e.Title == "" || e.Paper == "" {
			t.Fatalf("experiment %s incomplete: %+v", e.ID, e)
		}
	}
	if _, ok := ByID("E7"); !ok {
		t.Fatal("ByID(E7) failed")
	}
	if _, ok := ByID("E99"); ok {
		t.Fatal("ByID accepted unknown ID")
	}
}

// harness holds the one full RunAll of a test binary: all eleven tables,
// banners included. TestEveryExperimentRuns reads each experiment's section
// out of it and TestRunAllToDiscard checks the run as a whole, so E1–E11
// execute once per go test, not once per test.
var harness struct {
	once sync.Once
	out  string
	err  error
}

func runAllOnce() (string, error) {
	harness.once.Do(func() {
		var buf bytes.Buffer
		harness.err = RunAll(&buf)
		harness.out = buf.String()
	})
	return harness.out, harness.err
}

const bannerRule = "================================================================\n"

// banner is the header RunOne prints before an experiment's table.
func banner(e Experiment) string {
	return "\n" + bannerRule + e.ID + " — " + e.Title + " (" + e.Paper + ")\n" + bannerRule
}

// TestEveryExperimentRuns executes each table generator end to end; this
// is the integration test that ties all sixteen packages together. Heavy
// generators are skipped in -short mode, which runs the others directly;
// the full mode reads each table out of the shared RunAll.
func TestEveryExperimentRuns(t *testing.T) {
	heavy := map[string]bool{"E2": true, "E6": true, "E9": true, "E10": true}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			var out string
			if testing.Short() {
				if heavy[e.ID] {
					t.Skipf("%s is heavy; run without -short", e.ID)
				}
				var buf bytes.Buffer
				if err := e.Run(&buf); err != nil {
					t.Fatalf("%s failed: %v", e.ID, err)
				}
				out = buf.String()
			} else {
				all, err := runAllOnce()
				if err != nil {
					t.Fatalf("harness failed: %v", err)
				}
				_, rest, _ := strings.Cut(all, banner(e))
				out, _, _ = strings.Cut(rest, "\n"+bannerRule)
			}
			if len(out) == 0 {
				t.Fatalf("%s produced no output", e.ID)
			}
			if strings.Contains(out, "FALSE POSITIVE") {
				t.Fatalf("%s reports a false positive:\n%s", e.ID, out)
			}
			if strings.Contains(out, "%!") {
				t.Fatalf("%s has a formatting bug:\n%s", e.ID, out)
			}
		})
	}
}

func TestRunOneBanners(t *testing.T) {
	e, _ := ByID("E5")
	var buf bytes.Buffer
	if err := RunOne(&buf, e); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "E5 —") || !strings.Contains(out, "§III-C") {
		t.Fatalf("banner missing:\n%s", out)
	}
}

// TestRunAllToDiscard pins the whole of RunAll, every table under its
// banner in registry order, byte for byte: the tables print counts and the
// modelled clock only, so two runs agree at any GOMAXPROCS. The golden was
// recorded at 2751a79 with only the stopwatch lines and columns cut and a
// footnote naming each gated entry in their place.
func TestRunAllToDiscard(t *testing.T) {
	if testing.Short() {
		t.Skip("full harness is heavy; run without -short")
	}
	out, err := runAllOnce()
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/experiments.golden")
	if err != nil {
		t.Fatal(err)
	}
	if out != string(want) {
		t.Fatalf("RunAll differs from testdata/experiments.golden\n--- got\n%s--- want\n%s", out, want)
	}
}
