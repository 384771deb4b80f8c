package procvm

import (
	"bytes"
	"os"
	"testing"

	"tinymlops/internal/wire/wiretest"
)

// goldenModule exercises every PVM1 section: name, capabilities, a 64-bit
// gas limit, scalar and vector pools (one vector empty) and bytecode.
// testdata/golden.pvm was recorded from it with the encoder of commit
// 0d5e93c, before the codec moved onto internal/wire.
func goldenModule(t testing.TB) *Module {
	t.Helper()
	m, err := NewBuilder("golden").
		RequireCaps(CapSensor|CapStorage).
		Input().Normalize([]float32{1, 2}, []float32{3, 4}).PushScalar(2).Mul().
		MatVec([]float32{1, 2, 3, 4}, []float32{0, -0.5}).Softmax().Build()
	if err != nil {
		t.Fatal(err)
	}
	m.GasLimit = 1<<33 + 5
	m.Vectors = append(m.Vectors, []float32{})
	return m
}

// reencodeModule is PVM1's decode-then-encode for the shared strictness
// helpers.
func reencodeModule(data []byte) ([]byte, error) {
	m, err := DecodeModule(data)
	if err != nil {
		return nil, err
	}
	return m.Encode(), nil
}

func TestGoldenPVM1(t *testing.T) {
	want, err := os.ReadFile("testdata/golden.pvm")
	if err != nil {
		t.Fatal(err)
	}
	if got := goldenModule(t).Encode(); !bytes.Equal(got, want) {
		t.Fatalf("Encode differs from testdata/golden.pvm (%d vs %d bytes)", len(got), len(want))
	}
	wiretest.Strict(t, want, reencodeModule)
}

// FuzzDecodeModule feeds raw bytes to the PVM1 decoder: it never panics,
// and whatever it accepts is the canonical encoding of what it decoded.
func FuzzDecodeModule(f *testing.F) {
	golden := goldenModule(f).Encode()
	f.Add(golden)
	f.Add(golden[:len(golden)/2])
	f.Add([]byte(moduleMagic))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) { wiretest.Canonical(t, data, reencodeModule) })
}

// invalidPrograms are programs Builder.Build could not have emitted, one
// per thing Validate checks, as hand-built modules over a pool of one
// scalar and no vectors.
var invalidPrograms = map[string][]byte{
	"underflow":         {byte(OpInput), byte(OpAdd)},
	"truncated operand": {byte(OpInput), byte(OpSlice), 0, 0, 1},
	"unknown opcode":    {byte(OpInput), byte(opCount)},
	"pool index":        {byte(OpInput), byte(OpPushScalar), 1, 0},
	"empty final stack": {byte(OpInput), byte(OpDrop)},
	// (2−3)/2+1 truncates to one window; Run used to index past the map.
	"pool window larger than its map": {byte(OpInput), byte(OpMaxPool2D), 1, 0, 2, 0, 2, 0, 3, 0, 2, 0},
}

// TestDecodeValidates: a PVM1 blob whose program Validate refuses does not
// decode, so no loader (core's image decode, enclave.LoadSealedModule)
// hands it to a first query; if such a module is built by hand anyway, Run
// fails that query with a sentinel.
func TestDecodeValidates(t *testing.T) {
	for name, code := range invalidPrograms {
		m := &Module{Name: name, Scalars: []float32{1}, Code: code}
		if err := Validate(m); err == nil {
			t.Errorf("%s: Validate accepted it", name)
		}
		if _, err := DecodeModule(m.Encode()); err == nil {
			t.Errorf("%s: DecodeModule accepted it", name)
		}
		if res, err := NewRuntime(CapNone).Run(m, []float32{1, 2, 3, 4}); err == nil {
			t.Errorf("%s: Run returned %+v", name, res)
		}
	}
	if _, err := NewBuilder("p").Input().MaxPool2D(1, 2, 2, 3, 2).Build(); err == nil {
		t.Error("Build accepted a pool window larger than its map")
	}
}
