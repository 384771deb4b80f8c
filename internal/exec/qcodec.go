package exec

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"

	"tinymlops/internal/wire"
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

const qabMagic = "QAB1"

// isQAB reports whether a payload carries the quantized boundary magic —
// how a decoder tells the two wire formats apart before parsing.
func isQAB(payload []byte) bool {
	return bytes.HasPrefix(payload, []byte(qabMagic))
}

// encodeQAB appends the QAB1 encoding of (codes, scales) to buf.
func encodeQAB(buf *bytes.Buffer, codes []int8, scales []float32, rows, cols int) error {
	if rows <= 0 || cols <= 0 {
		return fmt.Errorf("exec: qab encode: dimensions %dx%d", rows, cols)
	}
	if len(codes) != rows*cols || len(scales) != rows {
		return fmt.Errorf("exec: qab encode: %d codes and %d scales for %dx%d", len(codes), len(scales), rows, cols)
	}
	buf.Grow(len(qabMagic) + 8 + 4*rows + rows*cols)
	b := append(buf.AvailableBuffer(), qabMagic...)
	b = binary.LittleEndian.AppendUint32(b, uint32(rows))
	b = binary.LittleEndian.AppendUint32(b, uint32(cols))
	for _, s := range scales {
		b = binary.LittleEndian.AppendUint32(b, math.Float32bits(s))
	}
	for _, c := range codes {
		b = append(b, byte(c))
	}
	buf.Write(b)
	return nil
}

// decodeQAB parses a QAB1 payload, rejecting truncation and trailing bytes.
func decodeQAB(payload []byte) (codes []int8, scales []float32, rows, cols int, err error) {
	r := wire.NewReader(payload)
	r.Magic(qabMagic)
	rows = r.Count(1<<20, 4)    // a row is at least its scale
	cols = r.Count(1<<24, rows) // and cols code bytes
	scales = r.F32s(rows)
	raw := r.Bytes(rows * cols)
	if err := r.Done(); err != nil {
		return nil, nil, 0, 0, fmt.Errorf("exec: qab decode: %w", err)
	}
	if rows == 0 || cols == 0 {
		return nil, nil, 0, 0, fmt.Errorf("exec: qab decode: implausible dimensions %dx%d", rows, cols)
	}
	codes = make([]int8, len(raw))
	for i, b := range raw {
		codes[i] = int8(b)
	}
	return codes, scales, rows, cols, nil
}
