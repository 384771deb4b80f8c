package nn

import (
	"bytes"
	"math"
	"testing"

	"tinymlops/internal/tensor"
)

// deltaFixtureNet builds a network covering dense, conv and batchnorm
// layers (every tensor-carrying layer kind the serializer knows).
func deltaFixtureNet(seed uint64) *Network {
	rng := tensor.NewRNG(seed)
	net := NewNetwork([]int{1, 8, 8},
		NewConv2D(1, 2, 3, 3, 1, 1, rng), NewReLU(),
		NewMaxPool2D(2, 2), NewFlatten(),
		NewDense(32, 12, rng), NewBatchNorm1D(12), NewTanh(),
		NewDense(12, 3, rng))
	// Give batch norm non-trivial running statistics: they are serialized
	// state and the delta must carry them too.
	x := tensor.Randn(rng, 1, 16, 1, 8, 8)
	net.Forward(x)
	return net
}

func marshalOrDie(t *testing.T, n *Network) []byte {
	t.Helper()
	data, err := n.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestDeltaRoundTripBitExact checks apply(encode(old,new), old) == new at
// the artifact-byte level for sparse (head-only) and dense (full retrain)
// updates across dense/conv/batchnorm layers.
func TestDeltaRoundTripBitExact(t *testing.T) {
	old := deltaFixtureNet(1)

	t.Run("sparse head-only update", func(t *testing.T) {
		upd := old.Clone()
		head := upd.Layers()[len(upd.Layers())-1].(*Dense)
		for i := range head.W.Value.Data {
			head.W.Value.Data[i] += 0.25
		}
		delta, err := EncodeDelta(old, upd)
		if err != nil {
			t.Fatal(err)
		}
		applied, err := ApplyDelta(old, delta)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(marshalOrDie(t, applied), marshalOrDie(t, upd)) {
			t.Fatal("applied delta does not reproduce the target artifact")
		}
		cost, err := CostOfDelta(delta, 32)
		if err != nil {
			t.Fatal(err)
		}
		if cost.FlashBytes != 4*head.W.Value.Size() {
			t.Fatalf("delta flashes %d bytes, the head's %d float32 weights are %d", cost.FlashBytes, head.W.Value.Size(), 4*head.W.Value.Size())
		}
		if full := len(marshalOrDie(t, upd)); cost.ShipBytes >= full {
			t.Fatalf("sparse delta ships %d bytes, full artifact is %d", cost.ShipBytes, full)
		}
	})

	t.Run("dense full update with NaN and -0", func(t *testing.T) {
		upd := deltaFixtureNet(2)
		// Forwarding with different data gives different running stats and
		// weights everywhere; also plant tricky bit patterns.
		d := upd.Layers()[4].(*Dense)
		d.W.Value.Data[0] = float32(math.NaN())
		d.W.Value.Data[1] = float32(math.Copysign(0, -1))
		delta, err := EncodeDelta(old, upd)
		if err != nil {
			t.Fatal(err)
		}
		applied, err := ApplyDelta(old, delta)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(marshalOrDie(t, applied), marshalOrDie(t, upd)) {
			t.Fatal("dense delta does not reproduce the target artifact bit-exactly")
		}
	})

	t.Run("identity update is near-free", func(t *testing.T) {
		delta, err := EncodeDelta(old, old.Clone())
		if err != nil {
			t.Fatal(err)
		}
		cost, err := CostOfDelta(delta, 32)
		if err != nil {
			t.Fatal(err)
		}
		if cost.FlashBytes != 0 || cost.ShipBytes > 128 {
			t.Fatalf("identity delta cost = %+v", cost)
		}
	})
}

// TestDeltaTopologyMismatch checks that encoding and applying across
// different topologies fail loudly instead of corrupting weights.
func TestDeltaTopologyMismatch(t *testing.T) {
	rng := tensor.NewRNG(3)
	a := NewNetwork([]int{4}, NewDense(4, 8, rng), NewReLU(), NewDense(8, 2, rng))
	b := NewNetwork([]int{4}, NewDense(4, 9, rng), NewReLU(), NewDense(9, 2, rng))
	if _, err := EncodeDelta(a, b); err == nil {
		t.Fatal("EncodeDelta accepted mismatched topologies")
	}
	aa := a.Clone()
	aa.Layers()[0].(*Dense).W.Value.Data[0] += 1
	delta, err := EncodeDelta(a, aa)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ApplyDelta(b, delta); err == nil {
		t.Fatal("ApplyDelta patched a model of the wrong topology")
	}
	// Truncated payloads are rejected.
	if _, err := ApplyDelta(a, delta[:len(delta)-3]); err == nil {
		t.Fatal("ApplyDelta accepted a truncated delta")
	}
	if _, err := ApplyDelta(a, []byte("not a delta")); err == nil {
		t.Fatal("ApplyDelta accepted garbage")
	}
}

// TestDeltaPackedCostScalesWithBits pins the packed-size model: int8 deltas
// ship a quarter of the float32 weight payload (indices excluded).
func TestDeltaPackedCostScalesWithBits(t *testing.T) {
	old := deltaFixtureNet(4)
	upd := old.Clone()
	head := upd.Layers()[len(upd.Layers())-1].(*Dense)
	for i := range head.W.Value.Data {
		head.W.Value.Data[i] *= 1.5
	}
	delta, err := EncodeDelta(old, upd)
	if err != nil {
		t.Fatal(err)
	}
	c32, err := CostOfDelta(delta, 32)
	if err != nil {
		t.Fatal(err)
	}
	c8, err := CostOfDelta(delta, 8)
	if err != nil {
		t.Fatal(err)
	}
	if c8.FlashBytes*4 != c32.FlashBytes {
		t.Fatalf("flash bytes: int8=%d float32=%d", c8.FlashBytes, c32.FlashBytes)
	}
	if c8.ShipBytes >= c32.ShipBytes {
		t.Fatalf("int8 delta (%d B) not smaller than float32 delta (%d B)", c8.ShipBytes, c32.ShipBytes)
	}
}
