package exec

import (
	"bytes"
	"math"
	"os"
	"testing"

	"tinymlops/internal/wire/wiretest"
)

// goldenQAB is a 3x2 boundary whose scales include the bit patterns a
// careless transcoder would normalize. testdata/golden.qab was recorded
// from it with the encoder of commit 0d5e93c, before the codec moved onto
// internal/wire.
func goldenQAB(t testing.TB) []byte {
	t.Helper()
	return qabEncode(t, []int8{-128, -1, 0, 1, 127, 5},
		[]float32{0.5, float32(math.NaN()), float32(math.Copysign(0, -1))}, 3, 2)
}

// reencodeQAB is QAB1's decode-then-encode for the shared strictness
// helpers.
func reencodeQAB(data []byte) ([]byte, error) {
	codes, scales, rows, cols, err := decodeQAB(data)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	err = encodeQAB(&buf, codes, scales, rows, cols)
	return buf.Bytes(), err
}

func TestGoldenQAB1(t *testing.T) {
	want, err := os.ReadFile("testdata/golden.qab")
	if err != nil {
		t.Fatal(err)
	}
	if got := goldenQAB(t); !bytes.Equal(got, want) {
		t.Fatalf("encodeQAB differs from testdata/golden.qab (%d vs %d bytes)", len(got), len(want))
	}
	wiretest.Strict(t, want, reencodeQAB)
}

// FuzzDecodeQAB feeds raw bytes to the QAB1 decoder: it never panics, and
// whatever it accepts is the canonical encoding of what it decoded.
func FuzzDecodeQAB(f *testing.F) {
	golden := goldenQAB(f)
	f.Add(golden)
	f.Add(golden[:10])
	f.Add([]byte("QAB1"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) { wiretest.Canonical(t, data, reencodeQAB) })
}
