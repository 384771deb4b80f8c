package tensor

import (
	"bytes"
	"encoding/binary"
	"io"
	"testing"
)

// FuzzTensorReadFrom drives the TMLT1 decoder with arbitrary bytes on its
// own: ReadFrom either fails or consumes n bytes that WriteTo reproduces
// exactly. A reader without Len(), which cannot refuse an unbacked element
// count before allocating for it, must reach the same verdict; it is driven
// on inputs of at most 64 KiB whose header declares at most 1 MiB, so the
// fuzzer never allocates for a count it cannot back.
func FuzzTensorReadFrom(f *testing.F) {
	var valid bytes.Buffer
	if _, err := Randn(NewRNG(5), 1, 2, 3).WriteTo(&valid); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add(valid.Bytes()[:valid.Len()-1]) // truncated body
	wrapping := binary.LittleEndian.AppendUint32([]byte(magic), 4)
	for i := 0; i < 4; i++ {
		wrapping = binary.LittleEndian.AppendUint32(wrapping, 65536) // 2^64 elements wrap to 0
	}
	f.Add(wrapping)
	f.Fuzz(func(t *testing.T, data []byte) {
		var x Tensor
		n, err := x.ReadFrom(bytes.NewReader(data))
		if n > int64(len(data)) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		var again bytes.Buffer
		if err == nil {
			if _, werr := x.WriteTo(&again); werr != nil {
				t.Fatal(werr)
			}
			if !bytes.Equal(again.Bytes(), data[:n]) {
				t.Fatalf("accepted %d bytes that WriteTo writes back differently", n)
			}
		}
		if len(data) > 64<<10 || declaredBytes(data) > 1<<20 {
			return
		}
		var y Tensor
		m, yerr := y.ReadFrom(struct{ io.Reader }{bytes.NewReader(data)})
		if (yerr == nil) != (err == nil) {
			t.Fatalf("with Len() the verdict is %v, without it %v", err, yerr)
		}
		if yerr == nil {
			var got bytes.Buffer
			if _, werr := y.WriteTo(&got); werr != nil {
				t.Fatal(werr)
			}
			if m != n || !bytes.Equal(got.Bytes(), again.Bytes()) {
				t.Fatalf("without Len() read %d bytes as %v, with it %d as %v", m, y.Shape(), n, x.Shape())
			}
		}
	})
}

// declaredBytes is the payload a TMLT1 header at the start of data
// announces, saturating once it passes 1 MiB; 0 when data holds no whole
// header, which the decoder refuses before allocating.
func declaredBytes(data []byte) uint64 {
	at := len(magic)
	if len(data) < at+4 {
		return 0
	}
	k := int(binary.LittleEndian.Uint32(data[at:]))
	if k < 1 || k > 8 || len(data) < at+4+4*k {
		return 0
	}
	total := uint64(4)
	for i := 0; i < k && total <= 1<<20; i++ {
		total *= uint64(binary.LittleEndian.Uint32(data[at+4+4*i:]))
	}
	return total
}
