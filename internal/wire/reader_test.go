package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"testing"
)

// primitives lists every read the cursor offers with one valid encoding of
// it. The tables below cut, pad and extend those encodings.
var primitives = []struct {
	name string
	enc  []byte
	read func(*Reader) any
}{
	{"Magic", []byte("TMLX1\n"), func(r *Reader) any { r.Magic("TMLX1\n"); return nil }},
	{"U8", []byte{0xab}, func(r *Reader) any { return r.U8() }},
	{"U32", []byte{1, 2, 3, 4}, func(r *Reader) any { return r.U32() }},
	{"U64", []byte{1, 2, 3, 4, 5, 6, 7, 8}, func(r *Reader) any { return r.U64() }},
	{"F32", binary.LittleEndian.AppendUint32(nil, math.Float32bits(-1.5)), func(r *Reader) any { return r.F32() }},
	{"F32s", []byte{0, 0, 0x80, 0x3f, 0, 0, 0, 0x40}, func(r *Reader) any { return len(r.F32s(2)) }},
	{"Uvarint", binary.AppendUvarint(nil, 1<<40), func(r *Reader) any { return r.Uvarint() }},
	{"Uvarint zero", []byte{0}, func(r *Reader) any { return r.Uvarint() }},
	{"Varint", binary.AppendVarint(nil, -(1 << 40)), func(r *Reader) any { return r.Varint() }},
	{"Bytes", []byte{9, 8, 7}, func(r *Reader) any { return len(r.Bytes(3)) }},
	{"String", []byte{3, 0, 0, 0, 'a', 'b', 'c'}, func(r *Reader) any { return r.String(3) }},
	{"Count", []byte{2, 0, 0, 0, 0, 0, 0, 0}, func(r *Reader) any { n := r.Count(2, 2); r.Bytes(2 * n); return n }},
	{"UvarintCount", []byte{0x81, 0x01, 0}, func(r *Reader) any { n := r.UvarintCount(1<<10, 0); r.Bytes(1); return n }},
}

func TestPrimitivesAcceptTheirEncoding(t *testing.T) {
	want := []any{nil, uint8(0xab), uint32(0x04030201), uint64(0x0807060504030201), float32(-1.5), 2,
		uint64(1 << 40), uint64(0), int64(-(1 << 40)), 3, "abc", 2, 129}
	for i, p := range primitives {
		r := NewReader(p.enc)
		if got := p.read(r); got != want[i] {
			t.Errorf("%s = %v, want %v", p.name, got, want[i])
		}
		if err := r.Done(); err != nil {
			t.Errorf("%s: %v", p.name, err)
		}
	}
}

// TestRejections is the contract in doc.go, row by row.
func TestRejections(t *testing.T) {
	for _, p := range primitives {
		// Cut short at every offset: the read fails, yields its zero value
		// or nothing, and the failure is an unexpected EOF.
		for cut := range p.enc {
			r := NewReader(p.enc[:cut:cut])
			got := p.read(r)
			err := r.Done()
			if err == nil {
				t.Errorf("%s cut to %d of %d bytes accepted (%v)", p.name, cut, len(p.enc), got)
			} else if !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Errorf("%s cut to %d bytes: %v, want an unexpected EOF", p.name, cut, err)
			}
		}
		// One byte too many: every read succeeds and Done refuses.
		r := NewReader(append(p.enc[:len(p.enc):len(p.enc)], 0))
		p.read(r)
		if r.Err() != nil || r.Done() == nil {
			t.Errorf("%s plus a trailing byte: Err = %v, Done = %v", p.name, r.Err(), r.Done())
		}
	}

	rows := []struct {
		name string
		data []byte
		read func(*Reader)
	}{
		{"wrong magic", []byte("TMLY1\n"), func(r *Reader) { r.Magic("TMLX1\n") }},
		{"padded uvarint", []byte{0x81, 0x80, 0x00}, func(r *Reader) { r.Uvarint() }},
		{"padded zero", []byte{0x80, 0x00}, func(r *Reader) { r.Uvarint() }},
		{"padded varint", []byte{0x82, 0x00}, func(r *Reader) { r.Varint() }},
		{"padded count", []byte{0x81, 0x00, 0}, func(r *Reader) { r.Bytes(r.UvarintCount(8, 1)) }},
		{"overlong uvarint", bytes.Repeat([]byte{0xff}, 11), func(r *Reader) { r.Uvarint() }},
		{"uvarint over 64 bits", append(bytes.Repeat([]byte{0xff}, 9), 0x02), func(r *Reader) { r.Uvarint() }},
		{"string over its limit", []byte{3, 0, 0, 0, 'a', 'b', 'c'}, func(r *Reader) { _ = r.String(2) }},
		{"count over its limit", []byte{5, 0, 0, 0, 1, 2, 3, 4, 5}, func(r *Reader) { r.Bytes(r.Count(4, 1)) }},
		{"count the tail cannot back", []byte{3, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, func(r *Reader) { r.Bytes(4 * r.Count(8, 4)) }},
		{"count of 4 GiB", []byte{0xff, 0xff, 0xff, 0xff, 0}, func(r *Reader) { r.Bytes(r.Count(math.MaxInt32, 1)) }},
		{"uvarint count of 4 EiB", append(binary.AppendUvarint(nil, 1<<62), 0), func(r *Reader) { r.Bytes(r.UvarintCount(math.MaxInt32, 1)) }},
		{"negative length", []byte{1, 2, 3}, func(r *Reader) { r.Bytes(-1) }},
		{"negative F32s", []byte{1, 2, 3}, func(r *Reader) { r.F32s(-1) }},
	}
	for _, row := range rows {
		r := NewReader(row.data)
		row.read(r)
		if r.Err() == nil {
			t.Errorf("%s: accepted", row.name)
		}
	}
}

// TestFirstErrorSticks: after one failed read the cursor stops moving,
// later reads are zero and the error reported is still the first.
func TestFirstErrorSticks(t *testing.T) {
	r := NewReader([]byte{1, 2, 3, 4, 5, 6})
	if r.U32() != 0x04030201 || r.U32() != 0 {
		t.Fatal("a short U32 did not read as zero")
	}
	first := r.Err()
	if first == nil || r.Len() != 2 {
		t.Fatalf("after the failed read: err = %v, %d bytes left", first, r.Len())
	}
	if r.U8() != 0 || r.Bytes(1) != nil || r.String(8) != "" || len(r.F32s(0)) != 0 || r.Count(9, 0) != 0 || r.Varint() != 0 {
		t.Error("a read after the failure returned data")
	}
	r.Magic("\x05")
	if r.Done() != first || r.Len() != 2 {
		t.Errorf("Done = %v with %d bytes left, want the first error and 2", r.Done(), r.Len())
	}
}

// TestBytesStayInTheirRange: an append to what Bytes returned never
// reaches the input that follows it, and the zero Reader is an empty input.
func TestBytesStayInTheirRange(t *testing.T) {
	data := []byte{1, 2, 3, 4, 5}
	r := NewReader(data)
	head := r.Bytes(2)
	_ = append(head, 0xee)
	if b := r.Bytes(2); !bytes.Equal(b, []byte{3, 4}) {
		t.Fatalf("Bytes after an append to the previous slice = %v", b)
	}
	if r.U8() != 5 || r.Len() != 0 {
		t.Fatalf("%d bytes left after the last one", r.Len())
	}
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
	var zero Reader
	if zero.Len() != 0 || zero.Done() != nil {
		t.Fatal("the zero Reader is not an empty input")
	}
}
