package nn

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"strings"
	"testing"

	"tinymlops/internal/tensor"
)

// trainFixture is a network with the batch it trains on.
type trainFixture struct {
	net    *Network
	x      *tensor.Tensor
	labels []int
}

// denseFixture puts the given layers between a 6→8 dense layer and a 3-way
// head; labels cycle through the classes.
func denseFixture(rng *tensor.RNG, mid ...Layer) trainFixture {
	layers := append(append([]Layer{NewDense(6, 8, rng)}, mid...), NewDense(8, 3, rng))
	return trainFixture{NewNetwork([]int{6}, layers...), tensor.Randn(rng, 1, 12, 6), cycle(12, 3)}
}

// convFixture is conv → mid → flatten → dense over 1×6×6 images; flat is
// the flattened width mid leaves.
func convFixture(rng *tensor.RNG, flat int, mid ...Layer) trainFixture {
	layers := append(append([]Layer{NewConv2D(1, 2, 3, 3, 1, 1, rng)}, mid...), NewFlatten(), NewDense(flat, 3, rng))
	return trainFixture{NewNetwork([]int{1, 6, 6}, layers...), tensor.Randn(rng, 1, 12, 1, 6, 6), cycle(12, 3)}
}

func cycle(n, classes int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i % classes
	}
	return out
}

// kindFixtures has one trainable network per row of the kind table, keyed
// by kind. A batch-norm model (running statistics are state, not Params)
// and a dropout model (the mask RNG is state no format carries) are the two
// a params-only copy gets wrong.
func kindFixtures(rng *tensor.RNG) map[string]trainFixture {
	return map[string]trainFixture{
		"dense":       denseFixture(rng),
		"conv2d":      convFixture(rng, 72),
		"maxpool2d":   convFixture(rng, 18, NewMaxPool2D(2, 2)),
		"batchnorm1d": denseFixture(rng, NewBatchNorm1D(8), NewReLU()),
		"dropout":     denseFixture(rng, NewReLU(), NewDropout(0.3, rng)),
		"flatten":     convFixture(rng, 72, NewReLU()),
		"relu":        denseFixture(rng, NewReLU()),
		"sigmoid":     denseFixture(rng, NewSigmoid()),
		"tanh":        denseFixture(rng, NewTanh()),
		"softmax":     denseFixture(rng, NewSoftmax()),
	}
}

// trainSeeded trains net for two epochs of batches of 5 (so the last batch
// is short) with every stochastic choice drawn from seed.
func trainSeeded(t *testing.T, fx trainFixture, net *Network, seed uint64, extra func(*Network)) {
	t.Helper()
	if _, err := Train(net, fx.x, fx.labels, TrainConfig{
		Epochs: 2, BatchSize: 5, Optimizer: NewSGD(0.05), RNG: tensor.NewRNG(seed), ExtraGrad: extra,
	}); err != nil {
		t.Fatal(err)
	}
}

// TestResetEqualsClone is ResetFrom's contract, for every layer kind: a
// scratch network dirtied by training, reset from the global and trained
// with a fixed seed serializes to the bytes of a fresh global.Clone()
// trained the same way — weights, running statistics and the dropout stream
// included — and the global is not touched.
func TestResetEqualsClone(t *testing.T) {
	fixtures := kindFixtures(tensor.NewRNG(71))
	for _, row := range kindRows {
		fx, ok := fixtures[row.kind]
		if !ok {
			t.Errorf("no reset fixture for layer kind %q", row.kind)
			continue
		}
		t.Run(row.kind, func(t *testing.T) {
			if !strings.Contains(fx.net.TopologySignature(), row.kind) {
				t.Fatalf("fixture %s has no %s layer", fx.net.TopologySignature(), row.kind)
			}
			global := marshalOrDie(t, fx.net)
			scratch := fx.net.Clone()
			for client := uint64(0); client < 3; client++ {
				// The first pass dirties a clone, every later one a reset.
				trainSeeded(t, fx, scratch, 100+client, nil)
				if err := scratch.ResetFrom(fx.net); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(marshalOrDie(t, scratch), global) {
					t.Fatal("a reset network does not serialize to the global's bytes")
				}
				for _, p := range scratch.Params() {
					if p.Grad.CountNonZero() != 0 {
						t.Fatalf("%s gradient survives the reset", p.Name)
					}
				}
			}
			fresh := fx.net.Clone()
			trainSeeded(t, fx, scratch, 7, nil)
			trainSeeded(t, fx, fresh, 7, nil)
			if !bytes.Equal(marshalOrDie(t, scratch), marshalOrDie(t, fresh)) {
				t.Fatal("reset-then-train differs from clone-then-train")
			}
			if !bytes.Equal(marshalOrDie(t, fx.net), global) {
				t.Fatal("training a reset network moved the global it was reset from")
			}
		})
	}
}

// TestResetFromRejectsAnotherTopology: a mismatch anywhere — depth, kind,
// config ints, config floats, tensor size — is an error, never a panic.
func TestResetFromRejectsAnotherTopology(t *testing.T) {
	rng := tensor.NewRNG(73)
	base := func() *Network {
		return NewNetwork([]int{6}, NewDense(6, 8, rng), NewBatchNorm1D(8), NewDropout(0.3, rng), NewDense(8, 3, rng))
	}
	eps := NewBatchNorm1D(8)
	eps.Eps = 1e-3
	wide := NewDense(6, 8, rng)
	wide.W.Value = tensor.New(6, 9) // a hand-built layer whose tensor disagrees with its config
	for name, other := range map[string]*Network{
		"depth":  NewNetwork([]int{6}, NewDense(6, 8, rng)),
		"kind":   NewNetwork([]int{6}, NewDense(6, 8, rng), NewReLU(), NewDropout(0.3, rng), NewDense(8, 3, rng)),
		"ints":   NewNetwork([]int{6}, NewDense(6, 8, rng), NewBatchNorm1D(8), NewDropout(0.3, rng), NewDense(8, 4, rng)),
		"floats": NewNetwork([]int{6}, NewDense(6, 8, rng), eps, NewDropout(0.3, rng), NewDense(8, 3, rng)),
		"p":      NewNetwork([]int{6}, NewDense(6, 8, rng), NewBatchNorm1D(8), NewDropout(0.5, rng), NewDense(8, 3, rng)),
		"tensor": NewNetwork([]int{6}, wide, NewBatchNorm1D(8), NewDropout(0.3, rng), NewDense(8, 3, rng)),
	} {
		if err := base().ResetFrom(other); err == nil {
			t.Errorf("%s: ResetFrom accepted %s", name, other.TopologySignature())
		}
		if err := other.ResetFrom(base()); err == nil {
			t.Errorf("%s: %s accepted a reset from the base", name, other.TopologySignature())
		}
	}
	if err := base().ResetFrom(base()); err != nil {
		t.Fatal(err)
	}
}

// gradDigest fingerprints every accumulated gradient bit.
func gradDigest(net *Network) string {
	h := sha256.New()
	var b [4]byte
	for _, p := range net.Params() {
		for _, v := range p.Grad.Data {
			binary.LittleEndian.PutUint32(b[:], math.Float32bits(v))
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// backwardGoldens were recorded at commit 5a8c1b0, when Dense.Backward
// allocated its weight-gradient product and column sums per step, both
// backward products ran kernels of their own, and Network.Backward
// formed the first layer's input gradient. Three networks reach the three
// first-layer paths — a dense one, a convolution (the ten-kind golden
// network) and a batch norm, which has parameters and no parameter-only
// backward — and a fourth has a convolution behind the first layer. "once" is one pass from zeroed gradients, "twice" a second pass
// over another batch with no ZeroGrad between, and "extra" the serialized
// model after Train with an ExtraGrad hook that adds a FedProx-style term.
var backwardGoldens = map[string]string{
	"dense/once":   "6b297b82a8fa7c99428985ba449da4c9",
	"dense/twice":  "0334ea0980e6c75369e2b1b23c358cdd",
	"dense/extra":  "ee0d32a618015ec201972d1aa502cd48",
	"conv/once":    "8b34681a51cc9af3d80403e08d1f7912",
	"conv/twice":   "1b3ad89a2fb543f06a9a2048a5419d87",
	"conv/extra":   "6e5ec8fd6d17a8ed6873fbb9a89768e9",
	"bnorm/once":   "006e6dc2b9adf998cc0baaf7b797a1e6",
	"bnorm/twice":  "6108033715e516a5368fa59383765950",
	"bnorm/extra":  "52cfddad6c18044a8429b7610d683831",
	"conv2/once":   "d4544c94a89d2611dcfb03d0ad418f40",
	"conv2/twice":  "53b56a32e759732cada939d81f11cfbb",
	"conv2/extra":  "b33a7c2b9c1f4a6f8fcf5d4c2ae40da6",
	"dropout/once": "b1b40d86f6d4e29b59310d64107132f4",
}

// backwardDigests computes what backwardGoldens pins.
func backwardDigests(t *testing.T) map[string]string {
	rng := tensor.NewRNG(79)
	fixtures := map[string]trainFixture{
		"dense": denseFixture(rng, NewTanh()),
		"conv":  {goldenNet(), tensor.Randn(rng, 1, 12, 1, 6, 6), cycle(12, 3)},
		"bnorm": {NewNetwork([]int{6}, NewBatchNorm1D(6), NewDense(6, 3, rng)), tensor.Randn(rng, 1, 12, 6), cycle(12, 3)},
		// The second convolution is the one whose input gradient is formed.
		"conv2": convFixture(rng, 36, NewReLU(), NewConv2D(2, 1, 3, 3, 1, 1, rng)),
	}
	out := make(map[string]string)
	for name, fx := range fixtures {
		shape := append([]int{6}, fx.x.Shape()[1:]...)
		per := fx.x.Size() / 12
		pass := func(lo int) {
			_, grad := softmaxCE(fx.net.Forward(tensor.FromSlice(fx.x.Data[lo*per:(lo+6)*per], shape...)), fx.labels[lo:lo+6])
			fx.net.Backward(grad)
		}
		fx.net.ZeroGrad()
		pass(0)
		out[name+"/once"] = gradDigest(fx.net)
		pass(6)
		out[name+"/twice"] = gradDigest(fx.net)

		start := fx.net.FlatParams()
		trainSeeded(t, fx, fx.net, 83, func(net *Network) {
			off := 0
			for _, p := range net.Params() {
				for k, v := range p.Value.Data {
					p.Grad.Data[k] += 0.1 * (v - start[off+k])
				}
				off += p.Value.Size()
			}
		})
		sum := sha256.Sum256(marshalOrDie(t, fx.net))
		out[name+"/extra"] = hex.EncodeToString(sum[:16])
	}
	// A decoded dropout layer's stream: what ResetFrom must restart.
	dec := goldenNet().Clone()
	_, grad := softmaxCE(dec.Forward(fixtures["conv"].x), fixtures["conv"].labels)
	dec.Backward(grad)
	out["dropout/once"] = gradDigest(dec)
	return out
}

// TestBackwardGoldens: the rewritten backward pass — layer-owned scratch,
// no input gradient for the first layer — accumulates the parent's bits.
func TestBackwardGoldens(t *testing.T) {
	got := backwardDigests(t)
	for name, want := range backwardGoldens {
		if got[name] != want {
			t.Errorf("%s: digest %s, recorded %s", name, got[name], want)
		}
	}
	if len(got) != len(backwardGoldens) {
		t.Errorf("%d digests computed, %d recorded", len(got), len(backwardGoldens))
	}
}
