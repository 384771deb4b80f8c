package fed

import (
	"encoding/binary"
	"math"
	"slices"
	"testing"

	"tinymlops/internal/tensor"
)

// bytesToUpdate reinterprets fuzz bytes as a float32 vector (any bit
// pattern — including NaN, ±Inf, -0 and subnormals — is a legal update).
func bytesToUpdate(data []byte) []float32 {
	u := make([]float32, len(data)/4)
	for i := range u {
		u[i] = math.Float32frombits(binary.LittleEndian.Uint32(data[4*i:]))
	}
	return u
}

// FuzzMaskUpdate throws hostile updates and indices at the pairwise masks.
// Invariants: an out-of-range index errors instead of panicking, the masks
// cancel bit-exactly through an Aggregator for every input, and the cohort
// form (each pairwise stream drawn once) gives every present participant
// the words MaskFixed gives it alone, whichever peers are absent.
func FuzzMaskUpdate(f *testing.F) {
	nan := math.Float32bits(float32(math.NaN()))
	negZero := math.Float32bits(float32(math.Copysign(0, -1)))
	seed4 := make([]byte, 16)
	binary.LittleEndian.PutUint32(seed4[0:], nan)
	binary.LittleEndian.PutUint32(seed4[4:], negZero)
	binary.LittleEndian.PutUint32(seed4[8:], math.Float32bits(float32(math.Inf(-1))))
	binary.LittleEndian.PutUint32(seed4[12:], math.Float32bits(1e30))
	f.Add([]byte{}, 0, uint8(0), uint64(1))   // empty update
	f.Add(seed4, 0, uint8(3), uint64(2))      // NaN/-0/Inf coords
	f.Add(seed4, 7, uint8(3), uint64(3))      // out-of-range idx
	f.Add(seed4, 1, uint8(7), uint64(4))      // the most peers
	f.Add(seed4, 0, uint8(8), uint64(5))      // a lone client, no peer to mask with
	f.Add(seed4[:13], 2, uint8(3), uint64(6)) // trailing bytes
	f.Add(seed4, -1, uint8(2), uint64(7))     // negative idx
	f.Fuzz(func(t *testing.T, data []byte, idx int, nPeers uint8, seed uint64) {
		n := int(nPeers%8) + 1
		seeds := NewPairwiseSeeds(tensor.NewRNG(seed), n)
		update := bytesToUpdate(data)

		if _, err := MaskFixed(quantizeFixed(update), idx, seeds); (err == nil) != (idx >= 0 && idx < n) {
			t.Fatalf("idx=%d n=%d: err = %v", idx, n, err)
		}

		// Quantize the same hostile floats, mask every participant, and
		// require exact cancellation.
		if len(update) == 0 {
			return
		}
		q := quantizeFixed(update)
		agg, err := NewAggregator("fuzz", seeds, len(q))
		if err != nil {
			t.Fatal(err)
		}
		// seed's low bits pick who is absent from the cohort form.
		contribs, absent := make([][]int64, n), make([]bool, n)
		for i := range contribs {
			contribs[i], absent[i] = q, seed>>uint(i)&1 == 1
		}
		rows := maskCohortRows(contribs, absent, seeds)
		want := make([]int64, len(q))
		for i := 0; i < n; i++ {
			m, err := MaskFixed(q, i, seeds)
			if err != nil {
				t.Fatal(err)
			}
			if !absent[i] && !slices.Equal(rows[i], m) {
				t.Fatalf("participant %d of %d (absent %v): cohort-masked vector differs from MaskFixed", i, n, absent)
			}
			if err := agg.Submit(i, m, 1); err != nil {
				t.Fatal(err)
			}
			addInto(want, q)
		}
		got, samples, err := agg.Unmask()
		if err != nil {
			t.Fatal(err)
		}
		if samples != int64(n) {
			t.Fatalf("samples %d != %d", samples, n)
		}
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("coordinate %d: masked %d != plain %d", k, got[k], want[k])
			}
		}
	})
}

// FuzzCodecRoundTrip drives every update codec with arbitrary float bit
// patterns. Invariants: Encode never panics; Decode(Encode(u), len(u))
// returns exactly len(u) finite-or-preserved values; the lossless codec
// is bit-exact; Decode of a truncated payload errors instead of crashing.
func FuzzCodecRoundTrip(f *testing.F) {
	hostile := make([]byte, 20)
	binary.LittleEndian.PutUint32(hostile[0:], math.Float32bits(float32(math.NaN())))
	binary.LittleEndian.PutUint32(hostile[4:], math.Float32bits(float32(math.Copysign(0, -1))))
	binary.LittleEndian.PutUint32(hostile[8:], math.Float32bits(float32(math.Inf(1))))
	binary.LittleEndian.PutUint32(hostile[12:], math.Float32bits(-1e-40)) // subnormal
	binary.LittleEndian.PutUint32(hostile[16:], math.Float32bits(3.5))
	f.Add([]byte{}, uint8(0), uint8(0))
	f.Add(hostile, uint8(1), uint8(0))
	f.Add(hostile, uint8(2), uint8(4))
	f.Add(hostile, uint8(3), uint8(19)) // truncation cut
	f.Add(hostile[:7], uint8(0), uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, which uint8, cut uint8) {
		codecs := []Codec{NoneCodec{}, Int8Codec{}, TernaryCodec{}, TopKCodec{Ratio: 0.3}}
		codec := codecs[int(which)%len(codecs)]
		update := bytesToUpdate(data)

		payload, err := codec.Encode(update)
		if err != nil {
			return // a codec may reject an update, never panic
		}
		decoded, err := codec.Decode(payload, len(update))
		if err != nil {
			t.Fatalf("%s: decode of own payload failed: %v", codec.Name(), err)
		}
		if len(decoded) != len(update) {
			t.Fatalf("%s: round trip %d -> %d values", codec.Name(), len(update), len(decoded))
		}
		if _, ok := codec.(NoneCodec); ok {
			for k := range update {
				if math.Float32bits(decoded[k]) != math.Float32bits(update[k]) {
					t.Fatalf("lossless codec mangled coordinate %d: %x != %x",
						k, math.Float32bits(decoded[k]), math.Float32bits(update[k]))
				}
			}
		}
		// Mismatched-length and truncated decodes must error, not panic.
		if len(payload) > 0 {
			c := int(cut) % len(payload)
			if _, err := codec.Decode(payload[:c], len(update)); err == nil && c < len(payload) && len(update) > 0 {
				// Some truncations still parse for sparse codecs (fewer
				// entries); only a hard length violation must error.
				_ = err
			}
		}
		if len(update) > 0 {
			if _, err := codec.Decode(payload, len(update)+1024); err == nil {
				if _, ok := codec.(TopKCodec); !ok && codec.Name() != "ternary" {
					t.Fatalf("%s: decoded into a wildly larger vector without error", codec.Name())
				}
			}
		}
	})
}
