package tensor

import (
	"bytes"
	"math"
	"os"
	"slices"
	"testing"

	"tinymlops/internal/wire"
	"tinymlops/internal/wire/wiretest"
)

// goldenTensor is a [2 1 3] tensor whose values include the bit patterns a
// careless transcoder would normalize: a NaN with a payload, negative zero,
// an infinity and a subnormal. testdata/golden.tmlt was recorded from it
// with the io.Writer encoder of commit 5a22840, before the codec moved
// onto internal/wire.
func goldenTensor() *Tensor {
	return FromSlice([]float32{
		1.5, math.Float32frombits(0x7fc00abc), float32(math.Copysign(0, -1)),
		float32(math.Inf(-1)), math.Float32frombits(1), -3.25,
	}, 2, 1, 3)
}

// reencode is TMLT1's decode-then-encode for the shared strictness
// helpers, through the cursor the other formats embed a tensor with.
func reencode(data []byte) ([]byte, error) {
	var t Tensor
	r := wire.NewReader(data)
	if err := t.Decode(r); err != nil {
		return nil, err
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return t.AppendBinary(nil), nil
}

// TestGoldenTMLT1 pins the encoding both ways: the golden tensor encodes to
// testdata/golden.tmlt through AppendBinary and WriteTo, and the file
// decodes, through Decode and ReadFrom, to its bits.
func TestGoldenTMLT1(t *testing.T) {
	want, err := os.ReadFile("testdata/golden.tmlt")
	if err != nil {
		t.Fatal(err)
	}
	g := goldenTensor()
	var w bytes.Buffer
	if _, err := g.WriteTo(&w); err != nil {
		t.Fatal(err)
	}
	if got := g.AppendBinary(nil); !bytes.Equal(got, want) || !bytes.Equal(w.Bytes(), want) {
		t.Fatalf("the encoders differ from testdata/golden.tmlt (%d and %d vs %d bytes)", len(got), w.Len(), len(want))
	}
	var viaReader Tensor
	if n, err := viaReader.ReadFrom(bytes.NewReader(want)); err != nil || n != int64(len(want)) {
		t.Fatalf("ReadFrom = %d, %v", n, err)
	}
	var viaCursor Tensor
	if err := viaCursor.Decode(wire.NewReader(want)); err != nil {
		t.Fatal(err)
	}
	for _, d := range []*Tensor{&viaReader, &viaCursor} {
		if !SameShape(d, g) || !slices.EqualFunc(d.Data, g.Data, func(a, b float32) bool {
			return math.Float32bits(a) == math.Float32bits(b)
		}) {
			t.Fatalf("decoded %v, want %v", d, g)
		}
	}
	wiretest.Strict(t, want, reencode)
}

// TestDecodeReusesStorage: a tensor whose shape and data are large enough
// decodes in place, allocating nothing, and one that does not decode is
// left as it was.
func TestDecodeReusesStorage(t *testing.T) {
	enc := goldenTensor().AppendBinary(nil)
	dst := New(4, 4)
	data := dst.Data
	if got := testing.AllocsPerRun(100, func() {
		if err := dst.Decode(wire.NewReader(enc)); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("Decode into large enough storage allocates %v", got)
	}
	if &dst.Data[0] != &data[0] || dst.Size() != 6 || !slices.Equal(dst.Shape(), []int{2, 1, 3}) {
		t.Fatalf("decoded %v did not reuse the storage", dst)
	}
	before := slices.Clone(dst.Data)
	if err := dst.Decode(wire.NewReader(enc[:len(enc)-1])); err == nil {
		t.Fatal("a truncated tensor decoded")
	}
	if !slices.Equal(dst.Shape(), []int{2, 1, 3}) || !slices.EqualFunc(dst.Data, before, func(a, b float32) bool {
		return math.Float32bits(a) == math.Float32bits(b)
	}) {
		t.Fatalf("a failed decode changed the tensor to %v", dst)
	}
}
