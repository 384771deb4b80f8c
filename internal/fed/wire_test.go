package fed

import (
	"bytes"
	"os"
	"testing"

	"tinymlops/internal/wire/wiretest"
)

// goldenPartial spans the varint widths a cohort partial uses: zeros,
// both signs around the one-byte boundary, and the ±2^42 clamp.
// testdata/golden.partial was recorded from it with the encoder of commit
// 0d5e93c, before the codec moved onto internal/wire.
func goldenPartial() []byte {
	return encodePartial(12345, []int64{0, 1, -1, 63, -64, 64, -65, 0, 1 << 20, -fixedMax, fixedMax})
}

// reencodePartial is the partial's decode-then-encode for the shared
// strictness helpers.
func reencodePartial(data []byte) ([]byte, error) {
	samples, q, err := decodePartial(data)
	if err != nil {
		return nil, err
	}
	return encodePartial(samples, q), nil
}

func TestGoldenPartial(t *testing.T) {
	want, err := os.ReadFile("testdata/golden.partial")
	if err != nil {
		t.Fatal(err)
	}
	if got := goldenPartial(); !bytes.Equal(got, want) {
		t.Fatalf("encodePartial differs from testdata/golden.partial (%d vs %d bytes)", len(got), len(want))
	}
	wiretest.Strict(t, want, reencodePartial)
}

// FuzzDecodePartial feeds raw bytes to the cloud tier's partial decoder —
// an edge aggregator's uplink is input the cloud did not produce. It never
// panics or allocates past the payload, and whatever it accepts is the
// canonical encoding of what it decoded.
func FuzzDecodePartial(f *testing.F) {
	golden := goldenPartial()
	f.Add(golden)
	f.Add(golden[:len(golden)/2])
	f.Add([]byte{0, 0})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) { wiretest.Canonical(t, data, reencodePartial) })
}
