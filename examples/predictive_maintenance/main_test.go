package main

import (
	"bytes"
	"os"
	"testing"
)

// TestTranscriptMatchesGolden pins the example's output byte for byte; the
// golden was recorded before main became run(io.Writer).
func TestTranscriptMatchesGolden(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/transcript.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := out.String(); got != string(want) {
		t.Errorf("transcript differs from testdata/transcript.golden\n--- got\n%s--- want\n%s", got, want)
	}
}
