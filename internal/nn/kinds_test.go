package nn

import (
	"slices"
	"strings"
	"testing"

	"tinymlops/internal/tensor"
)

// foreignLayer is a Layer the kind table does not know.
type foreignLayer struct{ Layer }

func (foreignLayer) Kind() string { return "foreign" }

// TestKindTableRoundTripsEveryKind takes every layer of the ten-kind golden
// network apart and puts it back together: the rebuilt layer must yield the
// same spec over the same tensors, and the spec's counts must match the
// attribute names the exchange format is given.
func TestKindTableRoundTripsEveryKind(t *testing.T) {
	seen := map[string]bool{}
	for i, l := range goldenNet().Layers() {
		spec, err := SpecOf(l)
		if err != nil {
			t.Fatalf("layer %d: %v", i, err)
		}
		seen[spec.Kind] = true
		ints, floats, tensors, ok := AttrNames(spec.Kind)
		if !ok || len(ints) != len(spec.Ints) || len(floats) != len(spec.Floats) || len(tensors) != len(spec.Tensors) {
			t.Fatalf("%s: AttrNames (%v %v %v) does not match spec %+v", spec.Kind, ints, floats, tensors, spec)
		}
		rebuilt, err := NewLayer(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec.Kind, err)
		}
		again, err := SpecOf(rebuilt)
		if err != nil {
			t.Fatalf("%s: %v", spec.Kind, err)
		}
		if again.Kind != spec.Kind || !slices.Equal(again.Ints, spec.Ints) ||
			!slices.Equal(again.Floats, spec.Floats) || !slices.Equal(again.Tensors, spec.Tensors) {
			t.Fatalf("%s: rebuilt spec %+v, want %+v", spec.Kind, again, spec)
		}
	}
	if len(seen) != len(kindRows) {
		t.Fatalf("golden network covers %d of %d kinds", len(seen), len(kindRows))
	}
}

func TestKindTableRejects(t *testing.T) {
	if _, _, _, ok := AttrNames("lstm"); ok {
		t.Error("AttrNames knows a kind outside the table")
	}
	if _, err := NewLayer(LayerSpec{Kind: "lstm"}); err == nil {
		t.Error("NewLayer built a kind outside the table")
	}
	if _, err := NewLayer(LayerSpec{Kind: "relu", Ints: []int{1}}); err == nil {
		t.Error("NewLayer gave relu a config int")
	}
	if _, err := NewLayer(LayerSpec{Kind: "conv2d", Ints: []int{1, 2, 1 << 21, 3, 1, 0},
		Tensors: []*tensor.Tensor{tensor.New(2, 9), tensor.New(2)}}); err == nil {
		t.Error("NewLayer accepted a conv2d kernel height beyond the geometry cap")
	}
	// A layer type the table does not know — even one that claims a known
	// kind — has no spec.
	spec, err := SpecOf(foreignLayer{})
	if err == nil || spec.Kind != "foreign" || spec.Ints != nil || spec.Tensors != nil {
		t.Errorf("SpecOf(foreign) = %+v, %v", spec, err)
	}
	// Nor is it admitted into a network: every codec, Clone and ResetFrom
	// take an admitted network's layers apart without an error path.
	if _, err := Assemble([]int{4}, []Layer{NewReLU(), foreignLayer{NewReLU()}}); err == nil ||
		!strings.Contains(err.Error(), "layer 1: nn: nn.foreignLayer is not a layer of a known kind") {
		t.Errorf("Assemble with a foreign layer: %v", err)
	}
}

// TestForwardBatchPanicsOnMisfit pins the one check on a batch: an input the
// network cannot take is refused where it enters — by ForwardBatch and by
// Forward, through one helper — naming the network's input, not by
// whichever kernel trips over it first.
func TestForwardBatchPanicsOnMisfit(t *testing.T) {
	rng := tensor.NewRNG(1)
	net := NewNetwork([]int{4}, NewDense(4, 3, rng), NewReLU())
	for name, in := range map[string]*tensor.Tensor{
		"wrong width": tensor.New(2, 5),
		"wrong rank":  tensor.New(2, 2, 2),
	} {
		for path, run := range map[string]func(){
			"ForwardBatch": func() { net.ForwardBatch(in, nil) },
			"Forward":      func() { net.Forward(in) },
		} {
			if msg := panicMessage(run); !strings.Contains(msg, "takes [n [4]] at layer 0") {
				t.Errorf("%s: %s panic = %q, want it to name the input at layer 0", name, path, msg)
			}
		}
	}
}
