package compat

import (
	"encoding/binary"
	"slices"
	"strings"
	"testing"

	"tinymlops/internal/nn"
	"tinymlops/internal/tensor"
)

// TestDecodersRejectTheSameLayers feeds both model decoders — the binary
// TMLN1 one and the exchange-document one — layers whose declared config
// disagrees with a tensor's shape. Both must fail with the error of the one
// constructor behind them, nn.NewLayer. Before the decoders shared it, the
// binary side accepted such an artifact and panicked in the serving kernel
// on the first query.
func TestDecodersRejectTheSameLayers(t *testing.T) {
	param := func(shape ...int) *nn.Param { return &nn.Param{Value: tensor.New(shape...)} }
	vec := func(n int) *tensor.Tensor { return tensor.New(n) }
	cases := []struct {
		name  string
		input []int
		layer nn.Layer
		// zero names a config int the layer's Describe refuses at 0 as well,
		// so no network can hold the bad layer: the case starts from a valid
		// one and zeroes the int in both encodings.
		zero string
	}{
		{"dense weight", []int{4}, &nn.Dense{In: 4, Out: 3, W: param(2, 2), B: param(3)}, ""},
		{"dense bias", []int{4}, &nn.Dense{In: 4, Out: 3, W: param(4, 3), B: param(4)}, ""},
		{"conv2d kernel", []int{1, 6, 6},
			&nn.Conv2D{InC: 1, OutC: 2, KH: 3, KW: 3, Stride: 1, W: param(2, 4), B: param(2)}, ""},
		{"conv2d zero stride", []int{1, 6, 6},
			&nn.Conv2D{InC: 1, OutC: 2, KH: 3, KW: 3, Stride: 1, W: param(2, 9), B: param(2)}, "stride"},
		{"batchnorm1d running variance", []int{8},
			&nn.BatchNorm1D{F: 8, Gamma: param(8), Beta: param(8), RunMean: vec(8), RunVar: vec(7)}, ""},
		{"maxpool2d zero window", []int{1, 6, 6}, &nn.MaxPool2D{K: 2, Stride: 2}, "k"},
		{"dropout probability", []int{4}, &nn.Dropout{P: 1.5}, ""},
	}
	for _, c := range cases {
		net := nn.NewNetwork(c.input, c.layer)
		data, err := net.MarshalBinary()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		doc, err := Export(net)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		spec, err := nn.SpecOf(c.layer)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if c.zero != "" {
			ints, _, _, _ := nn.AttrNames(spec.Kind)
			j := slices.Index(ints, c.zero)
			spec.Ints[j] = 0
			// The int's offset: magic, input rank and dims, layer count, kind.
			off := len("TMLN1\n") + 4 + 4*len(c.input) + 4 + 4 + len(spec.Kind) + 4*j
			binary.LittleEndian.PutUint32(data[off:], 0)
			doc.Nodes[0].IntAttrs[c.zero] = 0
		}
		_, want := nn.NewLayer(spec)
		if want == nil {
			t.Fatalf("%s: NewLayer accepts the spec", c.name)
		}
		if _, err := nn.UnmarshalNetwork(data); err == nil || !strings.Contains(err.Error(), want.Error()) {
			t.Errorf("%s: UnmarshalNetwork = %v, want the constructor's %q", c.name, err, want)
		}
		if _, err := Import(doc); err == nil || !strings.Contains(err.Error(), want.Error()) {
			t.Errorf("%s: Import = %v, want the constructor's %q", c.name, err, want)
		}
	}

	// The declared input shape goes through one nn check as well: a
	// dimension below one (0xffffffff is how TMLN1 spells -1) or more
	// elements than a tensor can carry. Both decoders used to take it
	// verbatim. No network over such a shape can be made, so both encodings
	// of one over [2 2] are patched.
	const want = "nn: implausible input shape"
	net := nn.NewNetwork([]int{2, 2}, nn.NewFlatten(), nn.NewDense(4, 3, tensor.NewRNG(5)))
	for _, shape := range [][]int{{0, 2}, {-1, 2}, {4, 0}, {1 << 15, 1 << 15}} {
		data, err := net.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		for i, d := range shape {
			binary.LittleEndian.PutUint32(data[len("TMLN1\n")+4+4*i:], uint32(d))
		}
		if _, err := nn.UnmarshalNetwork(data); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("input %v: UnmarshalNetwork = %v, want %q", shape, err, want)
		}
		doc, err := Export(net)
		if err != nil {
			t.Fatal(err)
		}
		doc.InputShape = shape
		if _, err := Import(doc); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("input %v: Import = %v, want %q", shape, err, want)
		}
	}
}

// TestDecodersRejectAShortTensorList covers the count half of the same
// contract. TMLN1 carries no tensor count — the kind table says how many
// follow — so there a missing tensor is a stream that ends (or turns into
// the next layer) early; a document names its tensors, and one it leaves
// out is NewLayer's to report.
func TestDecodersRejectAShortTensorList(t *testing.T) {
	rng := tensor.NewRNG(5)
	net := nn.NewNetwork([]int{4}, nn.NewDense(4, 3, rng))
	spec, _ := nn.SpecOf(net.Layers()[0])

	spec.Tensors = spec.Tensors[:1]
	if _, err := nn.NewLayer(spec); err == nil {
		t.Error("NewLayer accepted a dense layer with one tensor")
	}

	data, err := net.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	biasBytes := len("TMLT1\n") + 4 + 4 + 4*3
	if _, err := nn.UnmarshalNetwork(data[:len(data)-biasBytes]); err == nil {
		t.Error("UnmarshalNetwork accepted a dense layer without its bias")
	}

	doc, err := Export(net)
	if err != nil {
		t.Fatal(err)
	}
	delete(doc.Nodes[0].Tensors, "bias")
	spec.Tensors = append(spec.Tensors, nil)
	_, want := nn.NewLayer(spec)
	if _, err := Import(doc); err == nil || want == nil || !strings.Contains(err.Error(), want.Error()) {
		t.Errorf("Import = %v, want the constructor's %q", err, want)
	}
}
