package tensor

import (
	"bytes"
	"testing"
)

// FuzzInt4PackRoundTrip drives the packed int4 codec with arbitrary code
// streams: packing then unpacking must reproduce the codes exactly, equal
// code slices must produce equal bytes (canonical encoding), and mangled
// buffers — truncated, extended, or with a dirty pad nibble — must be
// rejected rather than silently decoded.
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
		got, err := UnpackInt4(packed, len(codes))
		if err != nil {
			t.Fatalf("unpack failed: %v", err)
		}
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
		if len(packed) > 0 {
			if _, err := UnpackInt4(packed[:len(packed)-1], len(codes)); err == nil {
				t.Fatal("truncated buffer decoded without error")
			}
			if _, err := UnpackInt4(append(append([]byte(nil), packed...), 0), len(codes)); err == nil {
				t.Fatal("oversized buffer decoded without error")
			}
		}
		if len(codes)&1 == 1 {
			dirty := append([]byte(nil), packed...)
			dirty[len(dirty)-1] |= 0x10
			if _, err := UnpackInt4(dirty, len(codes)); err == nil {
				t.Fatal("nonzero pad nibble decoded without error")
			}
		}
	})
}
