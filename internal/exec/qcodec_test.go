package exec

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
)

// qabEncode is a test helper returning the encoded bytes.
func qabEncode(t *testing.T, codes []int8, scales []float32, rows, cols int) []byte {
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
// wrong magic, truncated header, zero or absurd dimensions, short or
// trailing bytes — rejects instead of decoding garbage into the integer
// resume path.
func TestQABDecodeRejects(t *testing.T) {
	valid := qabEncode(t, []int8{1, 2, 3, 4}, []float32{1, 2}, 2, 2)
	header := func(rows, cols uint32, payload int) []byte {
		b := append([]byte(nil), qabMagic[:]...)
		b = binary.LittleEndian.AppendUint32(b, rows)
		b = binary.LittleEndian.AppendUint32(b, cols)
		return append(b, make([]byte, payload)...)
	}
	cases := []struct {
		name    string
		payload []byte
	}{
		{"empty", nil},
		{"bad magic", append([]byte("QAB2"), valid[4:]...)},
		{"magic only", valid[:4]},
		{"truncated header", valid[:10]},
		{"zero rows", header(0, 2, 10)},
		{"zero cols", header(2, 0, 10)},
		{"absurd rows", header(1<<21, 1, 64)},
		{"absurd cols", header(1, 1<<25, 64)},
		{"short payload", valid[:len(valid)-1]},
		{"trailing byte", append(append([]byte(nil), valid...), 0)},
	}
	for _, tc := range cases {
		if _, _, _, _, err := decodeQAB(tc.payload); err == nil {
			t.Errorf("%s: decoded without error", tc.name)
		}
	}
	// The valid payload still decodes (the table's control row).
	if _, _, _, _, err := decodeQAB(valid); err != nil {
		t.Fatalf("control payload rejected: %v", err)
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
