package procvm

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func run(t *testing.T, m *Module, input []float32) Result {
	t.Helper()
	res, err := NewRuntime(CapNone).Run(m, input)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

func TestNormalizePipeline(t *testing.T) {
	mean := []float32{1, 2, 3}
	std := []float32{2, 2, 2}
	m, err := NewBuilder("norm").Input().Normalize(mean, std).Build()
	if err != nil {
		t.Fatal(err)
	}
	res := run(t, m, []float32{3, 2, 1})
	want := []float32{1, 0, -1}
	for i, v := range want {
		if res.Output.Vec[i] != v {
			t.Fatalf("output = %v, want %v", res.Output.Vec, want)
		}
	}
	if res.GasUsed == 0 {
		t.Fatal("gas not metered")
	}
}

func TestSoftmaxArgmaxPostprocess(t *testing.T) {
	m, err := NewBuilder("post").Input().Softmax().ArgMax().Build()
	if err != nil {
		t.Fatal(err)
	}
	res := run(t, m, []float32{0.1, 2.5, -1, 0.3})
	if res.Output.IsVec || res.Output.Scalar != 1 {
		t.Fatalf("argmax = %+v, want scalar 1", res.Output)
	}
}

func TestSoftmaxSumsToOne(t *testing.T) {
	m, _ := NewBuilder("sm").Input().Softmax().Build()
	res := run(t, m, []float32{3, 1, 0.2, -5})
	var s float64
	for _, v := range res.Output.Vec {
		if v < 0 {
			t.Fatalf("softmax produced negative %v", v)
		}
		s += float64(v)
	}
	if math.Abs(s-1) > 1e-5 {
		t.Fatalf("softmax sums to %v", s)
	}
}

func TestThresholdAndClamp(t *testing.T) {
	m, err := NewBuilder("t").Input().Clamp(-1, 1).PushScalar(0).emit(OpThreshold).Build()
	if err != nil {
		t.Fatal(err)
	}
	res := run(t, m, []float32{-5, -0.5, 0.5, 5})
	want := []float32{0, 0, 1, 1}
	for i, v := range want {
		if res.Output.Vec[i] != v {
			t.Fatalf("output = %v, want %v", res.Output.Vec, want)
		}
	}
}

func TestArithmeticBroadcast(t *testing.T) {
	m, err := NewBuilder("a").Input().PushScalar(2).Mul().PushScalar(1).Add().Build()
	if err != nil {
		t.Fatal(err)
	}
	res := run(t, m, []float32{1, 2, 3})
	want := []float32{3, 5, 7}
	for i, v := range want {
		if res.Output.Vec[i] != v {
			t.Fatalf("output = %v, want %v", res.Output.Vec, want)
		}
	}
}

func TestVectorVectorArithmetic(t *testing.T) {
	m, err := NewBuilder("vv").Input().PushVector([]float32{10, 20, 30}).Add().Build()
	if err != nil {
		t.Fatal(err)
	}
	res := run(t, m, []float32{1, 2, 3})
	want := []float32{11, 22, 33}
	for i, v := range want {
		if res.Output.Vec[i] != v {
			t.Fatalf("output = %v", res.Output.Vec)
		}
	}
}

func TestMeanPoolAndSlice(t *testing.T) {
	m, err := NewBuilder("mp").Input().emit(OpMeanPool, 2).Slice(0, 2).Build()
	if err != nil {
		t.Fatal(err)
	}
	res := run(t, m, []float32{1, 3, 5, 7, 9, 11})
	want := []float32{2, 6}
	if len(res.Output.Vec) != 2 || res.Output.Vec[0] != want[0] || res.Output.Vec[1] != want[1] {
		t.Fatalf("output = %v, want %v", res.Output.Vec, want)
	}
}

func TestMeanPoolRejectsNonDivisor(t *testing.T) {
	m, err := NewBuilder("mp").Input().emit(OpMeanPool, 4).Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewRuntime(CapNone).Run(m, []float32{1, 2, 3}); !errors.Is(err, ErrTypeMismatch) {
		t.Fatalf("want type mismatch, got %v", err)
	}
}

func TestReductions(t *testing.T) {
	for _, c := range []struct {
		build func(*Builder) *Builder
		want  float32
	}{
		{func(b *Builder) *Builder { return b.Max() }, 9},
		{func(b *Builder) *Builder { return b.Sum() }, 15},
		{func(b *Builder) *Builder { return b.Mean() }, 5},
	} {
		m, err := c.build(NewBuilder("r").Input()).Build()
		if err != nil {
			t.Fatal(err)
		}
		res := run(t, m, []float32{1, 9, 5})
		if res.Output.IsVec || res.Output.Scalar != c.want {
			t.Fatalf("reduction = %+v, want %v", res.Output, c.want)
		}
	}
}

func TestStackOpsDupSwapDrop(t *testing.T) {
	// input, dup, sum, swap, mean, add → sum + mean
	m, err := NewBuilder("s").Input().emit(OpDup).Sum().emit(OpSwap).Mean().Add().Build()
	if err != nil {
		t.Fatal(err)
	}
	res := run(t, m, []float32{2, 4})
	if res.Output.Scalar != 9 { // 6 + 3
		t.Fatalf("got %v, want 9", res.Output.Scalar)
	}
}

func TestCapabilityGating(t *testing.T) {
	m, err := NewBuilder("cap").RequireCaps(CapSensor | CapNetwork).Input().Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewRuntime(CapSensor).Run(m, []float32{1}); !errors.Is(err, ErrCapabilityDenied) {
		t.Fatalf("want capability denial, got %v", err)
	}
	if _, err := NewRuntime(CapSensor|CapNetwork|CapStorage).Run(m, []float32{1}); err != nil {
		t.Fatalf("superset grant rejected: %v", err)
	}
}

func TestGasLimitEnforced(t *testing.T) {
	b := NewBuilder("hog").Input()
	for i := 0; i < 100; i++ {
		b = b.PushScalar(1).Add()
	}
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	rt := NewRuntime(CapNone)
	rt.MaxGas = 50
	if _, err := rt.Run(m, make([]float32, 64)); !errors.Is(err, ErrOutOfGas) {
		t.Fatalf("want out of gas, got %v", err)
	}
	// Module-declared limit tighter than host limit also applies.
	m2, _ := NewBuilder("self-limited").Input().Build()
	m2.GasLimit = 3
	if _, err := NewRuntime(CapNone).Run(m2, make([]float32, 64)); !errors.Is(err, ErrOutOfGas) {
		t.Fatalf("want out of gas from module limit, got %v", err)
	}
}

func TestGasDeterministic(t *testing.T) {
	m, _ := NewBuilder("g").Input().Softmax().ArgMax().Build()
	in := make([]float32, 32)
	r1 := run(t, m, in)
	r2 := run(t, m, in)
	if r1.GasUsed != r2.GasUsed {
		t.Fatalf("gas not deterministic: %d vs %d", r1.GasUsed, r2.GasUsed)
	}
}

func TestStackUnderflowCaughtByValidation(t *testing.T) {
	if _, err := NewBuilder("bad").Add().Build(); err == nil {
		t.Fatal("builder accepted stack underflow")
	}
	// Hand-crafted module that bypasses the builder.
	m := &Module{Name: "evil", Code: []byte{byte(OpAdd)}}
	if err := Validate(m); err == nil {
		t.Fatal("Validate accepted underflowing module")
	}
	if _, err := NewRuntime(CapNone).Run(m, nil); !errors.Is(err, ErrStackUnderflow) {
		t.Fatalf("want stack underflow, got %v", err)
	}
}

func TestInvalidOpcodeRejected(t *testing.T) {
	m := &Module{Name: "evil", Code: []byte{250}}
	if err := Validate(m); err == nil {
		t.Fatal("Validate accepted invalid opcode")
	}
	if _, err := NewRuntime(CapNone).Run(m, nil); !errors.Is(err, ErrBadModule) {
		t.Fatalf("want bad module, got %v", err)
	}
}

func TestPoolIndexOutOfRange(t *testing.T) {
	m := &Module{Name: "evil", Code: []byte{byte(OpPushScalar), 9, 0}}
	if err := Validate(m); err == nil {
		t.Fatal("Validate accepted out-of-pool index")
	}
}

func TestStackOverflow(t *testing.T) {
	b := NewBuilder("deep")
	for i := 0; i < 200; i++ {
		b = b.PushScalar(1)
	}
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	rt := NewRuntime(CapNone)
	rt.MaxStack = 8
	if _, err := rt.Run(m, nil); !errors.Is(err, ErrStackOverflow) {
		t.Fatalf("want stack overflow, got %v", err)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	m, err := NewBuilder("roundtrip").
		RequireCaps(CapSensor).
		Input().
		Normalize([]float32{1, 2}, []float32{3, 4}).
		Clamp(-1, 1).
		Softmax().
		Build()
	if err != nil {
		t.Fatal(err)
	}
	m.GasLimit = 12345
	enc := m.Encode()
	m2, err := DecodeModule(enc)
	if err != nil {
		t.Fatal(err)
	}
	if m2.Name != m.Name || m2.Caps != m.Caps || m2.GasLimit != m.GasLimit {
		t.Fatalf("manifest mismatch: %+v vs %+v", m2, m)
	}
	if m.Digest() != m2.Digest() {
		t.Fatal("digest changed across round trip")
	}
	// Behavior identical.
	in := []float32{0.5, -0.5}
	rt := NewRuntime(CapSensor)
	r1, err := rt.Run(m, in)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := rt.Run(m2, in)
	if err != nil {
		t.Fatal(err)
	}
	for i := range r1.Output.Vec {
		if r1.Output.Vec[i] != r2.Output.Vec[i] {
			t.Fatal("decoded module behaves differently")
		}
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := DecodeModule([]byte("definitely not a module")); err == nil {
		t.Fatal("DecodeModule accepted garbage")
	}
	if _, err := DecodeModule(nil); err == nil {
		t.Fatal("DecodeModule accepted nil")
	}
}

func TestDigestChangesWithContent(t *testing.T) {
	m1, _ := NewBuilder("a").Input().Build()
	m2, _ := NewBuilder("a").Input().Softmax().Build()
	if m1.Digest() == m2.Digest() {
		t.Fatal("different modules share a digest")
	}
}

func TestUnaryOps(t *testing.T) {
	m, err := NewBuilder("u").Input().emit(OpNeg).Abs().emit(OpSquare).Sqrt().Build()
	if err != nil {
		t.Fatal(err)
	}
	res := run(t, m, []float32{-3, 4})
	want := []float32{3, 4} // |-(-3)| = 3 squared=9 sqrt=3
	for i, v := range want {
		if math.Abs(float64(res.Output.Vec[i]-v)) > 1e-6 {
			t.Fatalf("output = %v, want %v", res.Output.Vec, want)
		}
	}
}

func TestCapabilityString(t *testing.T) {
	if CapNone.String() != "none" {
		t.Fatalf("CapNone = %q", CapNone.String())
	}
	got := (CapSensor | CapStorage).String()
	if got != "sensor|storage" {
		t.Fatalf("caps = %q", got)
	}
}

// Property: module execution is a pure function of (module, input) — same
// gas, same output every time; and softmax+argmax gives the index of the
// max element of the raw input.
func TestArgmaxSoftmaxInvarianceProperty(t *testing.T) {
	m, err := NewBuilder("p").Input().Softmax().ArgMax().Build()
	if err != nil {
		t.Fatal(err)
	}
	rt := NewRuntime(CapNone)
	f := func(raw []float32) bool {
		if len(raw) == 0 {
			return true
		}
		// Bound values to avoid NaN from quick's extreme floats.
		in := make([]float32, len(raw))
		for i, v := range raw {
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
				v = 0
			}
			if v > 100 {
				v = 100
			}
			if v < -100 {
				v = -100
			}
			in[i] = v
		}
		res, err := rt.Run(m, in)
		if err != nil {
			return false
		}
		best, bi := in[0], 0
		for i, v := range in[1:] {
			if v > best {
				best, bi = v, i+1
			}
		}
		return int(res.Output.Scalar) == bi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
