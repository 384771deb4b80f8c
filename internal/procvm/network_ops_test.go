package procvm

import (
	"encoding/binary"
	"errors"
	"math"
	"strings"
	"testing"

	"tinymlops/internal/wire/wiretest"
)

// TestMatVecAgainstReference pins OpMatVec with a hand-computed dense
// layer: a 3→2 matrix-vector product plus bias, then the ReLU/Sigmoid/
// Tanh epilogues a compiled network chains after it.
func TestMatVecAgainstReference(t *testing.T) {
	// W is [in=3, out=2] row-major: out_j = sum_i x_i * W[i*2+j] + b_j.
	w := []float32{1, -1, 0.5, 2, -2, 0.25}
	bias := []float32{0.5, -3}
	x := []float32{2, 4, -2}
	// out_0 = 2*1 + 4*0.5 + -2*-2 + 0.5 = 8.5
	// out_1 = 2*-1 + 4*2 + -2*0.25 - 3 = 2.5
	m, err := NewBuilder("dense").Input().MatVec(w, bias).Build()
	if err != nil {
		t.Fatal(err)
	}
	res := run(t, m, x)
	want := []float32{8.5, 2.5}
	for i, v := range want {
		if res.Output.Vec[i] != v {
			t.Fatalf("matvec output %v, want %v", res.Output.Vec, want)
		}
	}

	relu, err := NewBuilder("dense-relu").Input().MatVec(w, bias).emit(OpNeg).ReLU().Build()
	if err != nil {
		t.Fatal(err)
	}
	if out := run(t, relu, x).Output.Vec; out[0] != 0 || out[1] != 0 {
		t.Fatalf("relu(-matvec) = %v, want zeros", out)
	}
	sig, err := NewBuilder("sig").Input().Sigmoid().Build()
	if err != nil {
		t.Fatal(err)
	}
	if out := run(t, sig, []float32{0}).Output.Vec; out[0] != 0.5 {
		t.Fatalf("sigmoid(0) = %v, want 0.5", out[0])
	}
	tanh, err := NewBuilder("tanh").Input().Tanh().Build()
	if err != nil {
		t.Fatal(err)
	}
	if out := run(t, tanh, []float32{0}).Output.Vec; out[0] != 0 {
		t.Fatalf("tanh(0) = %v, want 0", out[0])
	}
}

// TestMatVecShapeAndPoolErrors pins the runtime's shape policing: a
// weight pool sized for the wrong input width is a type mismatch, not a
// silent misread.
func TestMatVecShapeAndPoolErrors(t *testing.T) {
	m, err := NewBuilder("bad").Input().MatVec([]float32{1, 2}, []float32{0}).Build()
	if err != nil {
		t.Fatal(err)
	}
	// Module expects in=2; feed 3 inputs.
	if _, err := NewRuntime(CapNone).Run(m, []float32{1, 2, 3}); !errors.Is(err, ErrTypeMismatch) {
		t.Fatalf("mis-shaped matvec: %v, want ErrTypeMismatch", err)
	}
	if b := NewBuilder("w").Input().MatVec([]float32{1, 2, 3}, []float32{0, 0}); b.err == nil {
		t.Fatal("builder accepted weights not a multiple of bias")
	}
}

// TestConv2DAgainstReference pins OpConv2D with a hand-computed 1×3×3
// map under a 2×2 identity-corner kernel, covering stride and the
// zero-padded taps.
func TestConv2DAgainstReference(t *testing.T) {
	// One channel, 3×3 input, one output channel, 2×2 kernel that picks
	// the top-left tap, stride 1, no padding → the 2×2 top-left window.
	x := []float32{
		1, 2, 3,
		4, 5, 6,
		7, 8, 9,
	}
	kernel := []float32{1, 0, 0, 0}
	m, err := NewBuilder("conv").Input().Conv2D(kernel, []float32{10}, 1, 3, 3, 1, 2, 2, 1, 0).Build()
	if err != nil {
		t.Fatal(err)
	}
	res := run(t, m, x)
	want := []float32{11, 12, 14, 15} // top-left of each window + bias 10
	if len(res.Output.Vec) != len(want) {
		t.Fatalf("conv output %v, want %v", res.Output.Vec, want)
	}
	for i, v := range want {
		if res.Output.Vec[i] != v {
			t.Fatalf("conv output %v, want %v", res.Output.Vec, want)
		}
	}

	// Padding 1 with a 3×3 sum kernel on a 1×1 input: only the center tap
	// lands on data, everything else reads zeros.
	sum9 := []float32{1, 1, 1, 1, 1, 1, 1, 1, 1}
	padded, err := NewBuilder("pad").Input().Conv2D(sum9, []float32{0}, 1, 1, 1, 1, 3, 3, 1, 1).Build()
	if err != nil {
		t.Fatal(err)
	}
	if out := run(t, padded, []float32{7}).Output.Vec; len(out) != 1 || out[0] != 7 {
		t.Fatalf("padded conv = %v, want [7]", out)
	}

	// Shape errors: wrong input length for the declared geometry.
	if _, err := NewRuntime(CapNone).Run(m, []float32{1, 2, 3}); !errors.Is(err, ErrTypeMismatch) {
		t.Fatalf("mis-shaped conv input: %v, want ErrTypeMismatch", err)
	}
	if b := NewBuilder("badgeo").Input().Conv2D(kernel, []float32{0, 0}, 1, 3, 3, 1, 2, 2, 1, 0); b.err == nil {
		t.Fatal("builder accepted bias inconsistent with outC")
	}
}

// TestMaxPool2DAgainstReference pins OpMaxPool2D: 2×2/stride-2 windows
// over a 2-channel 4×4 map, plus the geometry rejections.
func TestMaxPool2DAgainstReference(t *testing.T) {
	x := make([]float32, 2*4*4)
	for i := range x {
		x[i] = float32(i)
	}
	m, err := NewBuilder("pool").Input().MaxPool2D(2, 4, 4, 2, 2).Build()
	if err != nil {
		t.Fatal(err)
	}
	res := run(t, m, x)
	// Each 2×2 window's max is its bottom-right element.
	want := []float32{5, 7, 13, 15, 21, 23, 29, 31}
	for i, v := range want {
		if res.Output.Vec[i] != v {
			t.Fatalf("pool output %v, want %v", res.Output.Vec, want)
		}
	}
	if _, err := NewRuntime(CapNone).Run(m, []float32{1, 2}); !errors.Is(err, ErrTypeMismatch) {
		t.Fatalf("mis-shaped pool input: %v, want ErrTypeMismatch", err)
	}
	// A window larger than its map is refused where the module is built,
	// and by Run when the module was not.
	if _, err := NewBuilder("empty").Input().MaxPool2D(1, 2, 2, 3, 1).Build(); !errors.Is(err, ErrTypeMismatch) {
		t.Fatalf("3×3 window over a 2×2 map built: %v, want ErrTypeMismatch", err)
	}
	empty := &Module{Code: []byte{byte(OpInput), byte(OpMaxPool2D), 1, 0, 2, 0, 2, 0, 3, 0, 1, 0}}
	if _, err := NewRuntime(CapNone).Run(empty, []float32{1, 2, 3, 4}); !errors.Is(err, ErrTypeMismatch) {
		t.Fatalf("empty pool output: %v, want ErrTypeMismatch", err)
	}
}

// TestSubDivAndStackHelpers covers the remaining arithmetic emitters and
// the Drop stack op through a pipeline that computes (x - 1) / 2 and then
// discards a duplicate.
func TestSubDivAndStackHelpers(t *testing.T) {
	m, err := NewBuilder("arith").
		Input().PushScalar(1).Sub().PushScalar(2).emit(OpDiv).emit(OpDup).emit(OpDrop).Build()
	if err != nil {
		t.Fatal(err)
	}
	res := run(t, m, []float32{5, -3})
	want := []float32{2, -2}
	for i, v := range want {
		if res.Output.Vec[i] != v {
			t.Fatalf("(x-1)/2 = %v, want %v", res.Output.Vec, want)
		}
	}
	// Division by zero stays IEEE: +Inf, not a panic.
	dz, err := NewBuilder("dz").Input().PushScalar(0).emit(OpDiv).Build()
	if err != nil {
		t.Fatal(err)
	}
	if out := run(t, dz, []float32{1}).Output.Vec; !math.IsInf(float64(out[0]), 1) {
		t.Fatalf("1/0 = %v, want +Inf", out[0])
	}
}

// TestModuleDecodeRejectTable drives DecodeModule through the malformed
// encodings the fuzz corpus seeds — truncation at every offset and a
// trailing byte after a valid body — and through every section's cap.
func TestModuleDecodeRejectTable(t *testing.T) {
	m, err := NewBuilder("codec").
		RequireCaps(CapSensor).
		Input().PushScalar(2).Mul().MatVec([]float32{1, 2}, []float32{0}).Build()
	if err != nil {
		t.Fatal(err)
	}
	m.GasLimit = 500
	enc := m.Encode()
	dec, err := DecodeModule(enc)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Digest() != m.Digest() || dec.GasLimit != 500 || dec.Caps != CapSensor {
		t.Fatal("decode lost module metadata")
	}
	wiretest.Strict(t, enc, reencodeModule)

	// A section that declares more than its cap rejects on the cap, before
	// the bytes behind it are looked at. Offsets: magic, name, caps, gas,
	// then the pools.
	scalars := len(moduleMagic) + 4 + len(m.Name) + 4 + 8
	vectors := scalars + 4 + 4*len(m.Scalars)
	for name, at := range map[string]int{"name": len(moduleMagic), "scalar pool": scalars, "vector pool": vectors, "vector": vectors + 4} {
		bad := append([]byte(nil), enc...)
		binary.LittleEndian.PutUint32(bad[at:], 1<<20+1)
		if _, err := DecodeModule(bad); err == nil || !strings.Contains(err.Error(), "over the limit") {
			t.Errorf("%s of 1<<20+1 entries: %v", name, err)
		}
	}
}
