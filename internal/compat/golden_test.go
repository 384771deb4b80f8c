package compat

import (
	"bytes"
	"os"
	"testing"

	"tinymlops/internal/nn"
)

// TestGoldenExchangeJSON pins the exchange document byte for byte against
// the same ten-kind network nn/testdata/golden.tmln holds (both recorded
// from the encoders of commit 963da02), in both directions.
func TestGoldenExchangeJSON(t *testing.T) {
	tmln, err := os.ReadFile("../nn/testdata/golden.tmln")
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/golden.json")
	if err != nil {
		t.Fatal(err)
	}
	net, err := nn.UnmarshalNetwork(tmln)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := Export(net)
	if err != nil {
		t.Fatal(err)
	}
	got, err := doc.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("Export differs from testdata/golden.json (%d vs %d bytes)", len(got), len(want))
	}
	parsed, err := DecodeJSON(want)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Import(parsed)
	if err != nil {
		t.Fatal(err)
	}
	again, err := back.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, tmln) {
		t.Fatal("importing golden.json does not reproduce golden.tmln")
	}
}
