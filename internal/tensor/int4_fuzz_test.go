package tensor

import (
	"bytes"
	"testing"
)

// FuzzInt4PackRoundTrip drives the packed int4 encoding with arbitrary code
// streams: packing then unpacking must reproduce the codes exactly, and
// equal code slices must produce equal bytes (canonical encoding, an odd
// count's pad nibble zero).
func FuzzInt4PackRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00})
	f.Add([]byte{0x0F, 0x08, 0x07}) // extremes: -1-equivalent, -8, 7 after mapping
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	f.Add(bytes.Repeat([]byte{0xAB}, 33))
	f.Fuzz(func(t *testing.T, raw []byte) {
		codes := make([]int8, len(raw))
		for i, b := range raw {
			codes[i] = int8(b&0xF) - 8 // always in [-8,7]
		}
		packed, err := packRow(codes)
		if err != nil {
			t.Fatalf("pack of in-range codes failed: %v", err)
		}
		if len(packed) != Int4PackedLen(len(codes)) {
			t.Fatalf("packed %d codes into %d bytes, want %d", len(codes), len(packed), Int4PackedLen(len(codes)))
		}
		got := unpackInt4(packed, len(codes))
		for i := range codes {
			if got[i] != codes[i] {
				t.Fatalf("code %d round-tripped %d -> %d", i, codes[i], got[i])
			}
		}
		// Canonical: repacking the decoded codes gives identical bytes.
		repacked, err := packRow(got)
		if err != nil {
			t.Fatalf("repack failed: %v", err)
		}
		if !bytes.Equal(repacked, packed) {
			t.Fatalf("repack not canonical: %x vs %x", repacked, packed)
		}
		if len(codes)&1 == 1 && packed[len(packed)-1]>>4 != 0 {
			t.Fatalf("pad nibble of %x is not zero", packed)
		}
	})
}
