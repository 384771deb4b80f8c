package tensor_test

import (
	"errors"
	"math"
	"slices"
	"testing"

	"tinymlops/internal/nn"
	"tinymlops/internal/procvm"
	"tinymlops/internal/tensor"
)

// smallInts fills n floats with small integers: sums and products of them
// are exact in float32, so identities can be tested with ==.
func smallInts(rng *tensor.RNG, n int) []float32 {
	v := make([]float32, n)
	for i := range v {
		v[i] = float32(rng.Intn(15) - 7)
	}
	return v
}

// buffers returns a map, a column matrix and a pooled output sized for g.
func buffers(rng *tensor.RNG, g tensor.Window) (x, cols, pooled []float32) {
	oh, ow := g.Out()
	return smallInts(rng, g.C*g.H*g.W), smallInts(rng, g.Taps()*oh*ow), make([]float32, g.C*oh*ow)
}

var windowGeometries = []tensor.Window{
	{C: 1, H: 1, W: 1, KH: 1, KW: 1, Stride: 1},
	{C: 2, H: 6, W: 6, KH: 3, KW: 3, Stride: 1},
	{C: 1, H: 7, W: 5, KH: 3, KW: 2, Stride: 2, Pad: 1},
	{C: 3, H: 5, W: 5, KH: 3, KW: 3, Stride: 1, Pad: 1},
	{C: 2, H: 8, W: 7, KH: 2, KW: 3, Stride: 2},
	{C: 2, H: 3, W: 4, KH: 3, KW: 4, Stride: 1},
	{C: 1, H: 2, W: 2, KH: 4, KW: 4, Stride: 3, Pad: 1},
	{C: 1, H: 1, W: 2, KH: 2, KW: 2, Stride: 1, Pad: 3}, // whole windows inside the padding
}

// TestCol2imIsIm2colAdjoint: ⟨Im2col x, c⟩ = ⟨x, Col2im c⟩ for every x and
// c, exactly, on integers — the identity that makes Col2im the gradient of
// Im2col, overlapping windows and padding included.
func TestCol2imIsIm2colAdjoint(t *testing.T) {
	rng := tensor.NewRNG(1)
	for _, g := range windowGeometries {
		if err := g.Check(); err != nil {
			t.Fatalf("%+v: %v", g, err)
		}
		x, c, _ := buffers(rng, g)
		unrolled := make([]float32, len(c))
		for i := range unrolled {
			unrolled[i] = float32(math.NaN()) // Im2col must write every element
		}
		tensor.Im2col(unrolled, x, g)
		folded := make([]float32, len(x))
		tensor.Col2im(folded, c, g)
		var lhs, rhs float32
		for i := range c {
			lhs += unrolled[i] * c[i]
		}
		for i := range x {
			rhs += x[i] * folded[i]
		}
		if lhs != rhs {
			t.Errorf("%+v: ⟨Im2col x, c⟩ = %v, ⟨x, Col2im c⟩ = %v", g, lhs, rhs)
		}
	}
}

// TestIm2colInt8MatchesFloat: the integer instantiation gathers the same
// elements, with the same zeros in the padding.
func TestIm2colInt8MatchesFloat(t *testing.T) {
	rng := tensor.NewRNG(2)
	for _, g := range windowGeometries {
		x, c, _ := buffers(rng, g)
		codes, want := make([]int8, len(x)), make([]int8, len(c))
		for i, v := range x {
			codes[i] = int8(v)
		}
		tensor.Im2col(c, x, g)
		for i, v := range c {
			want[i] = int8(v)
		}
		got := make([]int8, len(c))
		for i := range got {
			got[i] = 99
		}
		tensor.Im2col(got, codes, g)
		if !slices.Equal(got, want) {
			t.Errorf("%+v: int8 columns differ from float columns", g)
		}
	}
}

// TestMaxPoolMatchesNaive compares MaxPool, argmax included, with the
// definition read off position by position: the first strict maximum under
// the window in row-major order, padding skipped.
func TestMaxPoolMatchesNaive(t *testing.T) {
	rng := tensor.NewRNG(3)
	for _, g := range windowGeometries {
		x, _, got := buffers(rng, g)
		oh, ow := g.Out()
		arg := make([]int, len(got))
		tensor.MaxPool(got, x, g, arg)
		inferred := make([]float32, len(got))
		tensor.MaxPool(inferred, x, g, nil)
		o := 0
		for c := 0; c < g.C; c++ {
			for oi := 0; oi < oh; oi++ {
				for oj := 0; oj < ow; oj++ {
					best, bestIdx := float32(math.Inf(-1)), -1
					for ki := 0; ki < g.KH; ki++ {
						for kj := 0; kj < g.KW; kj++ {
							si, sj := oi*g.Stride+ki-g.Pad, oj*g.Stride+kj-g.Pad
							if si < 0 || si >= g.H || sj < 0 || sj >= g.W {
								continue
							}
							if idx := (c*g.H+si)*g.W + sj; x[idx] > best {
								best, bestIdx = x[idx], idx
							}
						}
					}
					if got[o] != best || arg[o] != bestIdx || inferred[o] != best {
						t.Fatalf("%+v: output %d = %v from %d (inference path %v), want %v from %d",
							g, o, got[o], arg[o], inferred[o], best, bestIdx)
					}
					o++
				}
			}
		}
	}
}

// TestWindowCheck is the reject table: every dimension zero or negative,
// and a window larger than its padded map at stride 1 and — where Out alone
// would count one position — at stride 2. A window equal to its map passes.
func TestWindowCheck(t *testing.T) {
	ok := tensor.Window{C: 2, H: 4, W: 5, KH: 3, KW: 2, Stride: 2, Pad: 1}
	if err := ok.Check(); err != nil {
		t.Fatal(err)
	}
	for _, v := range []int{0, -1} {
		for i := 0; i < 6; i++ {
			g := ok
			*[]*int{&g.C, &g.H, &g.W, &g.KH, &g.KW, &g.Stride}[i] = v
			if g.Check() == nil {
				t.Errorf("%+v accepted", g)
			}
		}
	}
	if g := (tensor.Window{C: 1, H: 3, W: 3, KH: 1, KW: 1, Stride: 1, Pad: -1}); g.Check() == nil {
		t.Errorf("%+v accepted", g)
	}
	for _, c := range []struct {
		g  tensor.Window
		ok bool
	}{
		{tensor.Window{C: 1, H: 2, W: 2, KH: 3, KW: 3, Stride: 1}, false},
		{tensor.Window{C: 1, H: 2, W: 2, KH: 3, KW: 3, Stride: 2}, false},
		{tensor.Window{C: 1, H: 4, W: 2, KH: 3, KW: 3, Stride: 2}, false}, // fits down, not across
		{tensor.Window{C: 1, H: 2, W: 4, KH: 3, KW: 3, Stride: 2}, false},
		{tensor.Window{C: 1, H: 2, W: 2, KH: 5, KW: 5, Stride: 2, Pad: 1}, false},
		{tensor.Window{C: 1, H: 2, W: 2, KH: 4, KW: 4, Stride: 2, Pad: 1}, true}, // equal to the padded map
		{tensor.Window{C: 1, H: 3, W: 3, KH: 3, KW: 3, Stride: 1}, true},         // equal to the map
		{tensor.Window{C: 1, H: 3, W: 3, KH: 3, KW: 3, Stride: 7}, true},
	} {
		err := c.g.Check()
		if (err == nil) != c.ok {
			t.Errorf("%+v: Check = %v, want ok=%v", c.g, err, c.ok)
		}
		if oh, ow := c.g.Out(); c.ok && (oh != 1 || ow != 1) {
			t.Errorf("%+v: Out = %d×%d, want 1×1", c.g, oh, ow)
		}
	}
}

// FuzzWindow reads a small geometry from the fuzzer. When Check accepts it,
// Out is at least 1×1 and every kernel runs inside buffers sized from Out
// and Taps. When Check refuses it, so does every package built on it:
// nn.Assemble, so no network — and no QModel lowered from one — holds the
// layer, and procvm.Validate (inside Build) on the one-instruction module —
// which is what keeps the refusal from drifting apart again.
func FuzzWindow(f *testing.F) {
	f.Add(byte(1), byte(2), byte(2), byte(3), byte(3), byte(2), byte(0)) // the window PR 22 found
	f.Add(byte(2), byte(6), byte(6), byte(3), byte(3), byte(1), byte(1))
	f.Add(byte(1), byte(2), byte(2), byte(4), byte(4), byte(3), byte(1))
	f.Add(byte(0), byte(1), byte(1), byte(1), byte(1), byte(1), byte(0))
	f.Add(byte(1), byte(5), byte(3), byte(2), byte(7), byte(0), byte(2))
	f.Fuzz(func(t *testing.T, c, h, w, kh, kw, stride, pad byte) {
		g := tensor.Window{C: int(c % 4), H: int(h % 10), W: int(w % 10),
			KH: int(kh % 8), KW: int(kw % 8), Stride: int(stride % 5), Pad: int(pad % 4)}
		rng := tensor.NewRNG(uint64(c) | uint64(h)<<8 | uint64(w)<<16)
		if g.Check() == nil {
			if oh, ow := g.Out(); oh < 1 || ow < 1 {
				t.Fatalf("%+v passes Check with %d×%d positions", g, oh, ow)
			}
			x, cols, pooled := buffers(rng, g)
			tensor.Im2col(cols, x, g)
			tensor.Col2im(x, cols, g)
			tensor.MaxPool(pooled, x, g, make([]int, len(pooled)))
			return
		}
		conv := nn.NewConv2D(g.C, 1, g.KH, g.KW, g.Stride, g.Pad, rng)
		in := []int{g.C, g.H, g.W}
		if _, err := nn.Assemble(in, []nn.Layer{conv, nn.NewFlatten()}); err == nil {
			t.Errorf("%+v: nn.Assemble admitted the convolution", g)
		}
		_, err := procvm.NewBuilder("window").Input().
			Conv2D(conv.W.Value.Data, conv.B.Value.Data, g.C, g.H, g.W, 1, g.KH, g.KW, g.Stride, g.Pad).Build()
		if !errors.Is(err, procvm.ErrTypeMismatch) {
			t.Errorf("%+v: procvm conv2d: %v", g, err)
		}
		if g.KH != g.KW || g.Pad != 0 || g.KH < 1 {
			return // not a pooling window
		}
		if _, err := nn.Assemble(in, []nn.Layer{nn.NewMaxPool2D(g.KH, g.Stride)}); err == nil {
			t.Errorf("%+v: nn.Assemble admitted the pooling", g)
		}
		_, err = procvm.NewBuilder("window").Input().MaxPool2D(g.C, g.H, g.W, g.KH, g.Stride).Build()
		if !errors.Is(err, procvm.ErrTypeMismatch) {
			t.Errorf("%+v: procvm maxpool2d: %v", g, err)
		}
	})
}
