package verify

import (
	"bytes"
	"encoding/binary"
	"math"
	"os"
	"strings"
	"testing"

	"tinymlops/internal/tensor"
	"tinymlops/internal/wire/wiretest"
)

// goldenProof proves a 3×10 · 10×7 product, padded to 4×16×8: four rounds,
// 108 bytes. testdata/golden.proof was recorded from it with the encoder of
// commit bca807f, before the decoder moved onto internal/wire.
func goldenProof(t testing.TB) []byte {
	t.Helper()
	rng := tensor.NewRNG(101)
	a, b := randMat(rng, 3*10), randMat(rng, 10*7)
	_, proof, _, err := ProveMatMul(a, 3, 10, b, 7)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := proof.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// reencodeProof is the proof format's decode-then-encode for the shared
// strictness helpers.
func reencodeProof(data []byte) ([]byte, error) {
	var p Proof
	if err := p.UnmarshalBinary(data); err != nil {
		return nil, err
	}
	return p.MarshalBinary()
}

func TestGoldenProofBlob(t *testing.T) {
	want, err := os.ReadFile("testdata/golden.proof")
	if err != nil {
		t.Fatal(err)
	}
	if got := goldenProof(t); !bytes.Equal(got, want) {
		t.Fatalf("MarshalBinary differs from testdata/golden.proof (%d vs %d bytes)", len(got), len(want))
	}
	wiretest.Strict(t, want, reencodeProof)
}

// TestProofRejectsNonCanonicalElements: a field element is carried in
// [0, p), and an element at or above p is an error — reducing it instead
// would decode p + 5 and 5, two blobs, to one proof.
func TestProofRejectsNonCanonicalElements(t *testing.T) {
	golden := goldenProof(t)
	for _, v := range []uint64{P, P + 5, math.MaxUint64} {
		blob := append([]byte(nil), golden...)
		binary.LittleEndian.PutUint64(blob[12+8:], v) // round 0, g(1)
		var p Proof
		if err := p.UnmarshalBinary(blob); err == nil || !strings.Contains(err.Error(), "not below p") {
			t.Errorf("element %d: decoded with error %v, want a not-below-p rejection", v, err)
		}
	}
}

// FuzzUnmarshalProof feeds raw bytes to the proof decoder: it never
// panics, and whatever it accepts is the canonical encoding of what it
// decoded.
func FuzzUnmarshalProof(f *testing.F) {
	golden := goldenProof(f)
	f.Add(golden)
	f.Add(golden[:len(golden)/2])
	f.Add(golden[:12])
	f.Add([]byte{1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) { wiretest.Canonical(t, data, reencodeProof) })
}
