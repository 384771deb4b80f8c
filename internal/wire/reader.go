package wire

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Reader is a cursor over one encoded value, with a sticky first error
// (see the package comment). Its zero value reads an empty input.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader returns a cursor at the start of data. It keeps data, and
// Bytes returns sub-slices of it.
func NewReader(data []byte) *Reader { return &Reader{buf: data} }

// Len returns the number of unread bytes.
func (r *Reader) Len() int { return len(r.buf) - r.off }

// Err returns the first failure so far, for a decoder that must stop
// before it acts on what it has read.
func (r *Reader) Err() error { return r.err }

// Done returns the first failure, or an error if input is left unread: a
// decoder that has read its last field returns Done.
func (r *Reader) Done() error {
	if r.err == nil && r.Len() > 0 {
		r.fail("%d trailing bytes", r.Len())
	}
	return r.err
}

// fail records a read's failure at the current offset. Only the first
// read to fail calls it: every reader returns early once err is set.
func (r *Reader) fail(format string, args ...any) {
	r.err = fmt.Errorf("wire: offset %d: %w", r.off, fmt.Errorf(format, args...))
}

// Bytes returns the next n bytes as a sub-slice of the input, or nil if
// fewer are left.
func (r *Reader) Bytes(n int) []byte {
	if r.err == nil && (n < 0 || n > r.Len()) {
		r.fail("%d bytes wanted, %d left: %w", n, r.Len(), io.ErrUnexpectedEOF)
	}
	if r.err != nil {
		return nil
	}
	b := r.buf[r.off : r.off+n : r.off+n]
	r.off += n
	return b
}

// Read implements io.Reader over the unread bytes, so that an embedded
// value with its own ReadFrom (a TMLT1 tensor) reads through the cursor.
func (r *Reader) Read(p []byte) (int, error) {
	if r.err != nil {
		return 0, r.err
	}
	if r.Len() == 0 {
		return 0, io.EOF
	}
	n := copy(p, r.buf[r.off:])
	r.off += n
	return n, nil
}

// Magic consumes the format's magic string.
func (r *Reader) Magic(magic string) {
	if b := r.Bytes(len(magic)); r.err == nil && string(b) != magic {
		r.fail("magic %q, want %q", b, magic)
	}
}

// U8, U32 and U64 read a little-endian unsigned integer of that width.
func (r *Reader) U8() uint8   { return uint8(r.uint(1)) }
func (r *Reader) U32() uint32 { return uint32(r.uint(4)) }
func (r *Reader) U64() uint64 { return r.uint(8) }

func (r *Reader) uint(n int) (v uint64) {
	for i, b := range r.Bytes(n) {
		v |= uint64(b) << (8 * i)
	}
	return v
}

// F32 reads a little-endian IEEE-754 float32, every bit pattern preserved.
func (r *Reader) F32() float32 { return math.Float32frombits(r.U32()) }

// F32s reads n float32 values into a new slice. The slice is allocated
// only once the input is known to hold them.
func (r *Reader) F32s(n int) []float32 {
	b := r.Bytes(4 * n)
	out := make([]float32, len(b)/4)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return out
}

// Uvarint reads an unsigned varint in its minimal encoding.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	switch {
	case n == 0:
		r.fail("varint cut short: %w", io.ErrUnexpectedEOF)
	case n < 0:
		r.fail("varint overflows 64 bits")
	case n > 1 && r.buf[r.off+n-1] == 0:
		r.fail("varint padded to %d bytes", n)
	default:
		r.off += n
		return v
	}
	return 0
}

// Varint reads a zigzag-encoded signed varint in its minimal encoding.
func (r *Reader) Varint() int64 {
	u := r.Uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// Count reads a uint32 element count. It fails if the count is over limit
// or the unread bytes cannot hold that many elements of at least elemBytes
// each, so the caller may allocate for what it returns.
func (r *Reader) Count(limit, elemBytes int) int {
	return r.count(uint64(r.U32()), limit, elemBytes)
}

// UvarintCount is Count for a count encoded as an unsigned varint.
func (r *Reader) UvarintCount(limit, elemBytes int) int {
	return r.count(r.Uvarint(), limit, elemBytes)
}

func (r *Reader) count(n uint64, limit, elemBytes int) int {
	switch {
	case r.err != nil:
		return 0
	case n > uint64(limit):
		r.fail("count %d over the limit of %d", n, limit)
	case elemBytes > 0 && n > uint64(r.Len()/elemBytes):
		r.fail("count %d of %d-byte elements, %d bytes left: %w", n, elemBytes, r.Len(), io.ErrUnexpectedEOF)
	default:
		return int(n)
	}
	return 0
}

// String reads a uint32-length-prefixed string of at most limit bytes.
func (r *Reader) String(limit int) string { return string(r.Bytes(r.Count(limit, 1))) }
