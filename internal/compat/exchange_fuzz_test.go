package compat

import (
	"bytes"
	"os"
	"testing"

	"tinymlops/internal/nn"
	"tinymlops/internal/tensor"
)

// importJSON is the CLI's import path: parse the document, build the
// network.
func importJSON(data []byte) (*nn.Network, error) {
	doc, err := DecodeJSON(data)
	if err != nil {
		return nil, err
	}
	return Import(doc)
}

// FuzzImportJSON feeds the exchange importer arbitrary documents — the one
// decoder of outside input with no binary framing to hide behind. It must
// never panic, and whatever imports must re-export to a document that
// imports to a bit-identical network.
func FuzzImportJSON(f *testing.F) {
	golden, err := os.ReadFile("testdata/golden.json")
	if err != nil {
		f.Fatal(err)
	}
	seeds := [][]byte{golden}
	for _, net := range compileEquivNets(tensor.NewRNG(21)) {
		doc, err := Export(net)
		if err != nil {
			f.Fatal(err)
		}
		data, err := doc.EncodeJSON()
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, data)
	}
	for _, s := range seeds {
		f.Add(s)
		f.Add(s[:len(s)/2])
		f.Add(s[:len(s)-1])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		net, err := importJSON(data)
		if err != nil {
			return
		}
		doc, err := Export(net)
		if err != nil {
			t.Fatalf("imported network does not export: %v", err)
		}
		reencoded, err := doc.EncodeJSON()
		if err != nil {
			t.Fatalf("imported network does not encode: %v", err)
		}
		again, err := importJSON(reencoded)
		if err != nil {
			t.Fatalf("re-exported document does not import: %v", err)
		}
		first, err := net.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		second, err := again.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, second) {
			t.Fatal("re-exported document imports to a different network")
		}
	})
}
