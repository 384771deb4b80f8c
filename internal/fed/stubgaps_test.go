package fed

import (
	"testing"

	"tinymlops/internal/dataset"
	"tinymlops/internal/nn"
	"tinymlops/internal/tensor"
)

// Regression tests for latent gaps in the original stubs: inputs that used
// to slip through validation (or panic) now fail loudly.

func TestPseudoLabelEmptyInput(t *testing.T) {
	rng := tensor.NewRNG(93)
	net := nn.NewNetwork([]int{4}, nn.NewDense(4, 2, rng))
	if idx, labels := PseudoLabel(net, nil, 0.5); idx != nil || labels != nil {
		t.Fatalf("nil input produced %v/%v", idx, labels)
	}
	if idx, labels := PseudoLabel(net, tensor.New(0, 4), 0.5); idx != nil || labels != nil {
		t.Fatalf("zero-row input produced %v/%v", idx, labels)
	}
}

func TestPersonalizeRejectsNilGlobalAndEmptyData(t *testing.T) {
	rng := tensor.NewRNG(95)
	net := nn.NewNetwork([]int{4}, nn.NewDense(4, 2, rng))
	ds := dataset.Blobs(rng, 20, 4, 2, 3)
	if _, err := Personalize(nil, ds, PersonalizeConfig{RNG: rng}); err == nil {
		t.Fatal("accepted nil global")
	}
	if _, err := Personalize(net, nil, PersonalizeConfig{RNG: rng}); err == nil {
		t.Fatal("accepted nil data")
	}
	empty := &dataset.Dataset{Name: "empty", X: tensor.New(0, 4), NumClasses: 2}
	if _, err := Personalize(net, empty, PersonalizeConfig{RNG: rng}); err == nil {
		t.Fatal("accepted empty data")
	}
}

// TestSemiSupervisedRoundAllBelowThreshold pins the degenerate path that
// used to feed an empty dataset into Personalize: with no confident
// pseudo-labels the round is a no-op clone, not an error.
func TestSemiSupervisedRoundAllBelowThreshold(t *testing.T) {
	rng := tensor.NewRNG(97)
	net := nn.NewNetwork([]int{4}, nn.NewDense(4, 16, rng), nn.NewReLU(), nn.NewDense(16, 3, rng))
	x := tensor.RandUniform(rng, -1, 1, 40, 4)
	local, used, err := SemiSupervisedRound(net, x, 1.1, PersonalizeConfig{RNG: rng})
	if err != nil {
		t.Fatalf("all-below-threshold round errored: %v", err)
	}
	if used != 0 {
		t.Fatalf("used %d examples above an impossible threshold", used)
	}
	if local == net {
		t.Fatal("returned the global aliased, not a clone")
	}
	if paramsDigest(local) != paramsDigest(net) {
		t.Fatal("no-op round changed the weights")
	}
}
