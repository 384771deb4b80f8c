package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// The transcripts under testdata/ were recorded from the CLI one commit
// before its bodies took an io.Writer and its imports moved onto the facade;
// they pin every subcommand's output byte for byte.

// transcript runs one subcommand and returns what it printed.
func transcript(t *testing.T, name string, args ...string) string {
	t.Helper()
	var out bytes.Buffer
	if err := subcommands[name](&out, args); err != nil {
		t.Fatalf("tinymlops %s %v: %v", name, args, err)
	}
	return out.String()
}

func checkGolden(t *testing.T, golden, got string) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", golden+".golden"))
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("transcript differs from testdata/%s.golden\n--- got\n%s--- want\n%s", golden, got, want)
	}
}

// TestModelToolchainRoundTrip drives train → info → variants → export →
// import through a temp dir: each transcript matches its golden and the
// re-imported artifact is the trained one, byte for byte.
func TestModelToolchainRoundTrip(t *testing.T) {
	dir := t.TempDir()
	model, graph, model2 := filepath.Join(dir, "model.tmln"), filepath.Join(dir, "model.json"), filepath.Join(dir, "model2.tmln")
	for _, step := range [][]string{
		{"train", "-task", "blobs", "-out", model},
		{"info", "-model", model},
		{"variants", "-model", model},
		{"export", "-model", model, "-out", graph},
		{"import", "-graph", graph, "-out", model2},
	} {
		// The goldens were recorded with relative paths.
		got := strings.ReplaceAll(transcript(t, step[0], step[1:]...), dir+string(filepath.Separator), "")
		checkGolden(t, step[0], got)
	}
	a, err := os.ReadFile(model)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(model2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("export → import did not reproduce the trained artifact")
	}
}

// TestFleetSubcommandsMatchGoldenAtAnyWorkerCount runs every fleet
// subcommand at small size: one golden per scenario, asserted at 1 and at 4
// workers.
func TestFleetSubcommandsMatchGoldenAtAnyWorkerCount(t *testing.T) {
	cases := []struct {
		golden string
		args   string
	}{
		{"simulate", "simulate"},
		{"rollout", "rollout"},
		{"rollout_drift", "rollout -drift"},
		{"chaos", "chaos -devices 60"},
		{"chaos_swarm", "chaos -devices 60 -swarm"},
		{"offload", "offload"},
		{"offload_enclave", "offload -enclave"},
		{"settle", "settle -devices 12 -seed 46"},
		{"fed", "fed -clients 40 -aggregators 4 -rounds 2"},
	}
	for _, c := range cases {
		for _, workers := range []int{1, 4} {
			t.Run(c.golden+"/workers="+strconv.Itoa(workers), func(t *testing.T) {
				args := append(strings.Fields(c.args), "-workers", strconv.Itoa(workers))
				checkGolden(t, c.golden, transcript(t, args[0], args[1:]...))
			})
		}
	}
}
