package main

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// The listing golden was recorded from the command at 2751a79, before its
// body took an io.Writer.
func TestList(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out, []string{"-list"}); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/list.golden")
	if err != nil {
		t.Fatal(err)
	}
	if out.String() != string(want) {
		t.Fatalf("-list printed\n%s--- want\n%s", out.String(), want)
	}
}

// TestRunOneMatchesGolden: -run E5 prints exactly E5's section of the
// experiments golden, banner included (E5 is quick and holds no timing).
func TestRunOneMatchesGolden(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out, []string{"-run", "e5"}); err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile("../../internal/experiments/testdata/experiments.golden")
	if err != nil {
		t.Fatal(err)
	}
	const rule = "\n================================================================\n"
	_, rest, ok := strings.Cut(string(golden), rule+"E5 — ")
	if !ok {
		t.Fatal("no E5 section in the golden")
	}
	section, _, _ := strings.Cut(rest, rule+"E6 — ")
	if want := rule + "E5 — " + section; out.String() != want {
		t.Fatalf("-run E5 printed\n%s--- want\n%s", out.String(), want)
	}
}

func TestUnknownExperiment(t *testing.T) {
	var out bytes.Buffer
	err := run(&out, []string{"-run", "E5,E99"})
	if err == nil || !strings.Contains(err.Error(), `"E99"`) {
		t.Fatalf("err = %v, want one naming E99", err)
	}
	if !strings.Contains(out.String(), "E5 — ") {
		t.Fatal("the known experiment before the unknown one did not run")
	}
}
