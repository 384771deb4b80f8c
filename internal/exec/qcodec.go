package exec

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
)

// Quantized activation boundary codec ("QAB1"). An integer-kernel split
// ships the boundary as the int8 activation codes plus one dynamic scale
// per example — exactly the values the device's own dense stage would have
// produced locally, so the cloud resumes bit-identically while the wire
// carries ~1 byte per activation instead of 4.
//
// Layout (little-endian):
//
//	magic   "QAB1"       4 bytes
//	rows    uint32
//	cols    uint32
//	scales  float32[rows]
//	codes   int8[rows*cols]
//
// Decoding is strict: a short buffer, trailing bytes, a zero dimension or
// an implausible size all reject.

var qabMagic = [4]byte{'Q', 'A', 'B', '1'}

// isQAB reports whether a payload carries the quantized boundary magic —
// how a decoder tells the two wire formats apart before parsing.
func isQAB(payload []byte) bool {
	return len(payload) >= 4 && bytes.Equal(payload[:4], qabMagic[:])
}

// encodeQAB appends the QAB1 encoding of (codes, scales) to buf.
func encodeQAB(buf *bytes.Buffer, codes []int8, scales []float32, rows, cols int) error {
	if rows <= 0 || cols <= 0 {
		return fmt.Errorf("exec: qab encode: dimensions %dx%d", rows, cols)
	}
	if len(codes) != rows*cols || len(scales) != rows {
		return fmt.Errorf("exec: qab encode: %d codes and %d scales for %dx%d", len(codes), len(scales), rows, cols)
	}
	buf.Write(qabMagic[:])
	var u [4]byte
	binary.LittleEndian.PutUint32(u[:], uint32(rows))
	buf.Write(u[:])
	binary.LittleEndian.PutUint32(u[:], uint32(cols))
	buf.Write(u[:])
	for _, s := range scales {
		binary.LittleEndian.PutUint32(u[:], math.Float32bits(s))
		buf.Write(u[:])
	}
	for _, c := range codes {
		buf.WriteByte(byte(c))
	}
	return nil
}

// decodeQAB parses a QAB1 payload, rejecting truncation and trailing bytes.
func decodeQAB(payload []byte) (codes []int8, scales []float32, rows, cols int, err error) {
	if !isQAB(payload) {
		return nil, nil, 0, 0, fmt.Errorf("exec: qab decode: bad magic")
	}
	rest := payload[4:]
	if len(rest) < 8 {
		return nil, nil, 0, 0, fmt.Errorf("exec: qab decode: truncated header")
	}
	r := binary.LittleEndian.Uint32(rest[0:4])
	c := binary.LittleEndian.Uint32(rest[4:8])
	rest = rest[8:]
	if r == 0 || c == 0 || r > 1<<20 || c > 1<<24 {
		return nil, nil, 0, 0, fmt.Errorf("exec: qab decode: implausible dimensions %dx%d", r, c)
	}
	rows, cols = int(r), int(c)
	want := 4*rows + rows*cols
	if len(rest) != want {
		return nil, nil, 0, 0, fmt.Errorf("exec: qab decode: %d payload bytes, want %d for %dx%d", len(rest), want, rows, cols)
	}
	scales = make([]float32, rows)
	for i := range scales {
		scales[i] = math.Float32frombits(binary.LittleEndian.Uint32(rest[4*i:]))
	}
	rest = rest[4*rows:]
	codes = make([]int8, rows*cols)
	for i := range codes {
		codes[i] = int8(rest[i])
	}
	return codes, scales, rows, cols, nil
}
