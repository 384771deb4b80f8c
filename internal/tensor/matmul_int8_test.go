package tensor

import (
	"math"
	"slices"
	"testing"
)

// refMatMulInt8 is the naive scalar triple loop the blocked kernel must
// reproduce bit for bit.
func refMatMulInt8(a, b []int8, m, k, n int, rowScales, colScales []float32) []float32 {
	out := make([]float32, m*n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var acc int32
			for p := 0; p < k; p++ {
				acc += int32(a[i*k+p]) * int32(b[p*n+j])
			}
			out[i*n+j] = float32(acc) * rowScales[i] * colScales[j]
		}
	}
	return out
}

func int8Fixture(rng *RNG, m, k, n int) (a, b []int8, rs, cs []float32) {
	a = make([]int8, m*k)
	b = make([]int8, k*n)
	for i := range a {
		a[i] = int8(rng.Intn(255) - 127)
	}
	for i := range b {
		b[i] = int8(rng.Intn(255) - 127)
	}
	rs = make([]float32, m)
	for i := range rs {
		rs[i] = 0.001 * float32(i+1)
	}
	cs = make([]float32, n)
	for j := range cs {
		cs[j] = 0.01 * float32(j%7+1)
	}
	return a, b, rs, cs
}

// TestMatMulInt8MatchesNaive pins the blocked kernel to the scalar
// reference across shapes that cross the column block, one past 2^17
// MACs, and degenerate empty dimensions.
func TestMatMulInt8MatchesNaive(t *testing.T) {
	rng := NewRNG(71)
	for _, dims := range [][3]int{{1, 1, 1}, {3, 7, 5}, {17, 23, 11}, {4, 9, 2*colBlock + 3}, {64, 128, 96}, {0, 4, 4}, {4, 0, 4}, {4, 4, 0}} {
		m, k, n := dims[0], dims[1], dims[2]
		a, b, rs, cs := int8Fixture(rng, m, k, n)
		want := refMatMulInt8(a, b, m, k, n, rs, cs)
		got := make([]float32, m*n)
		MatMulInt8(got, a, b, m, k, n, rs, cs)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("[%d,%d,%d]: element %d = %v, want %v (must be bit-identical)", m, k, n, i, got[i], want[i])
			}
		}
	}
}

// interleavedFixture builds operands that walk every branch of the
// interleaved kernel: rows cycle through all-zero, fully dense at the
// extreme codes −128, −127 and 127, fully dense at random codes, and half
// zero (the post-ReLU case); weights span the whole int8 range, extremes
// included.
func interleavedFixture(rng *RNG, m, k, n int) (a, b []int8, rs, cs []float32) {
	extremes := []int8{-128, -127, 127}
	a = make([]int8, m*k)
	for i := range a {
		switch i / k % 4 {
		case 0:
			a[i] = 0
		case 1:
			a[i] = extremes[i%3]
		case 2:
			a[i] = int8(rng.Intn(256)-128) | 1
		default:
			a[i] = int8(rng.Intn(256) - 128)
			if rng.Intn(2) == 0 {
				a[i] = 0
			}
		}
	}
	b = make([]int8, k*n)
	for i := range b {
		b[i] = int8(rng.Intn(256) - 128)
		if i%5 == 0 {
			b[i] = extremes[i%3]
		}
	}
	_, _, rs, cs = int8Fixture(rng, m, 0, n)
	return a, b, rs, cs
}

// checkInterleaved runs MatMulInterleaved over b widened by InterleaveK
// and fails unless every output bit equals the naive reference's.
func checkInterleaved(t testing.TB, a, b []int8, m, k, n int, rs, cs []float32) {
	t.Helper()
	want := refMatMulInt8(a, b, m, k, n, rs, cs)
	got := make([]float32, m*n)
	MatMulInterleaved(got, a, InterleaveK(b, k, n), m, k, n, rs, cs)
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("[%d,%d,%d]: element %d = %v, want %v (must be bit-identical)", m, k, n, i, got[i], want[i])
		}
	}
}

// TestMatMulInterleavedMatchesNaive pins the interleaved kernel to the
// scalar reference on odd k (a pair tail), k = 1, n mod 4 ∈ {0, 1, 2, 3}
// (the fold's one-column tail), n past a column tile, k past one and past
// two lists (the chunked walk), empty dimensions, all-zero and all-−128
// operands, and products past 2^17 MACs.
func TestMatMulInterleavedMatchesNaive(t *testing.T) {
	rng := NewRNG(74)
	shapes := [][3]int{
		{1, 1, 1}, {4, 1, 2}, {5, 1, 9}, {4, 7, 5}, {8, 23, 11},
		{3, 6, 4}, {3, 6, 5}, {3, 9, 6}, {3, 9, 7}, {2, 2, 8},
		{4, 2*nzCap + 1, 7}, {3, 4*nzCap + 3, 13}, {8, 4*nzCap + 9, 2*colBlock + 3},
		{64, 96, 81}, {96, 65, 83}, {0, 4, 4}, {4, 0, 5}, {4, 4, 0},
	}
	for _, s := range shapes {
		m, k, n := s[0], s[1], s[2]
		a, b, rs, cs := interleavedFixture(rng, m, k, n)
		checkInterleaved(t, a, b, m, k, n, rs, cs)
	}
	for _, fill := range []int8{0, -128} {
		for _, s := range [][3]int{{2, 7, 5}, {3, 2*nzCap + 5, 10}} {
			m, k, n := s[0], s[1], s[2]
			a, b := make([]int8, m*k), make([]int8, k*n)
			for i := range a {
				a[i] = fill
			}
			for i := range b {
				b[i] = fill
			}
			_, _, rs, cs := int8Fixture(rng, m, 0, n)
			checkInterleaved(t, a, b, m, k, n, rs, cs)
		}
	}
}

// TestMatMulInterleavedOverflowBound runs the worst case the documented k
// bound admits: k = 2^17 − 1 MACs of ±128·128 per output, so the low
// column's sum reaches 2^31 − 2^14, one product short of int32 overflow,
// while its neighbour sums to the most negative value the codes allow.
func TestMatMulInterleavedOverflowBound(t *testing.T) {
	const k, n = 1<<17 - 1, 3
	a := make([]int8, k)
	b := make([]int8, k*n)
	for p := range a {
		a[p] = -128
		b[p*n], b[p*n+1], b[p*n+2] = -128, 127, -128
	}
	checkInterleaved(t, a, b, 1, k, n, []float32{1}, []float32{1, 1, 1})
}

// TestInterleaveKLayout pins the widened layout on a [3,2] matrix: row
// pair 0 interleaves rows 0 and 1 column by column, and the odd last row
// pairs with 0. InterleaveKInto, over a destination full of garbage, must
// write every entry, an odd last row's zero partners included, and so
// equal InterleaveK at odd and even row counts.
func TestInterleaveKLayout(t *testing.T) {
	got := InterleaveK([]int8{1, 2, 3, 4, -5, -128}, 3, 2)
	want := []int16{1, 3, 2, 4, -5, 0, -128, 0}
	if !slices.Equal(got, want) {
		t.Fatalf("InterleaveK = %v, want %v", got, want)
	}
	rng := NewRNG(75)
	for _, s := range [][2]int{{1, 1}, {1, 5}, {2, 3}, {3, 4}, {4, 7}, {7, 9}, {0, 3}, {5, 0}} {
		rows, cols := s[0], s[1]
		codes, _, _, _ := int8Fixture(rng, rows, cols, 0)
		dst := make([]int16, (rows+1)&^1*cols)
		for i := range dst {
			dst[i] = int16(rng.Intn(1<<16) - 1<<15)
		}
		InterleaveKInto(dst, codes, rows, cols)
		if want := InterleaveK(codes, rows, cols); !slices.Equal(dst, want) {
			t.Fatalf("[%d,%d]: InterleaveKInto over garbage = %v, want %v", rows, cols, dst, want)
		}
	}
}

// TestMatMulInterleavedPanicsOnShortOperands checks the entry check: a
// negative dimension or any operand one element short of its shape panics
// before the fold, which reads w unchecked on amd64, touches anything.
func TestMatMulInterleavedPanicsOnShortOperands(t *testing.T) {
	const m, k, n = 2, 5, 3
	full := func() (dst []float32, a []int8, w []int16, rs, cs []float32) {
		return make([]float32, m*n), make([]int8, m*k), make([]int16, (k+1)/2*2*n),
			make([]float32, m), make([]float32, n)
	}
	cases := []struct {
		name    string
		m, k, n int
		cut     func(dst *[]float32, a *[]int8, w *[]int16, rs, cs *[]float32)
	}{
		{"dst", m, k, n, func(d *[]float32, _ *[]int8, _ *[]int16, _, _ *[]float32) { *d = (*d)[:m*n-1] }},
		{"a", m, k, n, func(_ *[]float32, a *[]int8, _ *[]int16, _, _ *[]float32) { *a = (*a)[:m*k-1] }},
		{"w", m, k, n, func(_ *[]float32, _ *[]int8, w *[]int16, _, _ *[]float32) { *w = (*w)[:len(*w)-1] }},
		{"rowScales", m, k, n, func(_ *[]float32, _ *[]int8, _ *[]int16, rs, _ *[]float32) { *rs = (*rs)[:m-1] }},
		{"colScales", m, k, n, func(_ *[]float32, _ *[]int8, _ *[]int16, _, cs *[]float32) { *cs = (*cs)[:n-1] }},
		{"negative m", -1, k, n, nil},
		{"negative k", m, -1, n, nil},
		{"negative n", m, k, -1, nil},
	}
	for _, c := range cases {
		dst, a, w, rs, cs := full()
		if c.cut != nil {
			c.cut(&dst, &a, &w, &rs, &cs)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: MatMulInterleaved did not panic", c.name)
				}
			}()
			MatMulInterleaved(dst, a, w, c.m, c.k, c.n, rs, cs)
		}()
	}
}

// FuzzMatMulInterleaved derives a shape and both operands from the input
// and checks the interleaved kernel against the naive reference bit for
// bit.
func FuzzMatMulInterleaved(f *testing.F) {
	f.Add(uint8(1), uint8(1), []byte{0x80, 0x81, 0x7f})
	f.Add(uint8(3), uint8(5), []byte{0, 0, 1, 0xff, 0x80, 0, 0x7f, 2, 0, 0})
	f.Add(uint8(16), uint8(129), []byte{0x80})
	f.Fuzz(func(t *testing.T, mb, nb uint8, raw []byte) {
		if len(raw) == 0 {
			return
		}
		m, n := int(mb%17), int(nb)
		k := 1 + len(raw)%(4*nzCap+40)
		a := make([]int8, m*k)
		for i := range a {
			a[i] = int8(raw[i%len(raw)])
			if raw[(i*7)%len(raw)]&3 == 0 {
				a[i] = 0
			}
		}
		b := make([]int8, k*n)
		for i := range b {
			b[i] = int8(raw[(i*5+3)%len(raw)] ^ byte(i))
		}
		rs := make([]float32, m)
		for i := range rs {
			rs[i] = 1 + float32(i)/8
		}
		cs := make([]float32, n)
		for j := range cs {
			cs[j] = 1 / float32(j+1)
		}
		checkInterleaved(t, a, b, m, k, n, rs, cs)
	})
}
