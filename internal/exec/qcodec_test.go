package exec

import (
	"bytes"
	"encoding/binary"
	"math"
	"strings"
	"testing"

	"tinymlops/internal/wire/wiretest"
)

// qabEncode is a test helper returning the encoded bytes.
func qabEncode(t testing.TB, codes []int8, scales []float32, rows, cols int) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := encodeQAB(&buf, codes, scales, rows, cols); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestQABRoundTrip pins the wire codec: every code and every scale bit —
// including NaN, -0 and infinite scales, which a buggy transcoder would
// normalize — survives encode/decode, and the magic discriminates.
func TestQABRoundTrip(t *testing.T) {
	codes := []int8{-128, -1, 0, 1, 127, 5}
	scales := []float32{
		0.5,
		float32(math.NaN()),
		float32(math.Copysign(0, -1)),
	}
	enc := qabEncode(t, codes, scales, 3, 2)
	if !isQAB(enc) {
		t.Fatal("encoded payload does not carry the QAB magic")
	}
	gotCodes, gotScales, rows, cols, err := decodeQAB(enc)
	if err != nil {
		t.Fatal(err)
	}
	if rows != 3 || cols != 2 {
		t.Fatalf("decoded %dx%d, want 3x2", rows, cols)
	}
	for i, c := range gotCodes {
		if c != codes[i] {
			t.Fatalf("code %d: %d != %d", i, c, codes[i])
		}
	}
	for i, s := range gotScales {
		if math.Float32bits(s) != math.Float32bits(scales[i]) {
			t.Fatalf("scale %d: bits %08x != %08x", i, math.Float32bits(s), math.Float32bits(scales[i]))
		}
	}
}

// TestQABDecodeRejects is the strictness table: every malformed payload —
// wrong magic, zero or absurd dimensions, and (through the shared helper)
// every truncation and a trailing byte — rejects instead of decoding
// garbage into the integer resume path.
func TestQABDecodeRejects(t *testing.T) {
	valid := qabEncode(t, []int8{1, 2, 3, 4}, []float32{1, 2}, 2, 2)
	wiretest.Strict(t, valid, reencodeQAB)
	header := func(rows, cols uint32, payload int) []byte {
		b := []byte(qabMagic)
		b = binary.LittleEndian.AppendUint32(b, rows)
		b = binary.LittleEndian.AppendUint32(b, cols)
		return append(b, make([]byte, payload)...)
	}
	cases := []struct {
		name    string
		payload []byte
	}{
		{"bad magic", append([]byte("QAB2"), valid[4:]...)},
		{"zero rows", header(0, 2, 0)},
		{"zero cols", header(2, 0, 8)},
	}
	for _, tc := range cases {
		if _, _, _, _, err := decodeQAB(tc.payload); err == nil {
			t.Errorf("%s: decoded without error", tc.name)
		}
	}
	// A dimension over its cap rejects on the cap, whatever follows.
	for name, payload := range map[string][]byte{"rows": header(1<<20+1, 1, 64), "cols": header(1, 1<<24+1, 64)} {
		if _, _, _, _, err := decodeQAB(payload); err == nil || !strings.Contains(err.Error(), "over the limit") {
			t.Errorf("absurd %s: %v", name, err)
		}
	}
}

// TestQABEncodeRejects pins the encoder's preconditions: dimensions must
// be positive and the code/scale slices must match them exactly.
func TestQABEncodeRejects(t *testing.T) {
	var buf bytes.Buffer
	cases := []struct {
		name       string
		codes      []int8
		scales     []float32
		rows, cols int
	}{
		{"zero rows", nil, nil, 0, 4},
		{"negative cols", nil, nil, 1, -1},
		{"codes short", []int8{1}, []float32{1}, 1, 2},
		{"scales long", []int8{1, 2}, []float32{1, 2}, 1, 2},
	}
	for _, tc := range cases {
		buf.Reset()
		if err := encodeQAB(&buf, tc.codes, tc.scales, tc.rows, tc.cols); err == nil {
			t.Errorf("%s: encoded without error", tc.name)
		}
	}
}
