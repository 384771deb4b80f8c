package tensor

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"
)

// refMatMulScalar is the scalar float32 ikj loop the float kernel must
// reproduce bit for bit: every element adds its products over p in
// ascending order, rounding each product and each sum to float32, and a ±0
// activation contributes nothing — not even 0·w, which is NaN for an
// infinite or NaN weight.
func refMatMulScalar(a, b []float32, m, k, n int) []float32 {
	out := make([]float32, m*n)
	for i := 0; i < m; i++ {
		for p := 0; p < k; p++ {
			av := a[i*k+p]
			if av == 0 {
				continue
			}
			for j := 0; j < n; j++ {
				out[i*n+j] += float32(av * b[p*n+j])
			}
		}
	}
	return out
}

// checkMatMulInto runs MatMulInto over a dirty destination and fails
// unless every output equals the scalar reference's bits. NaN compares by
// being NaN: when both operands of an add are NaN, which payload survives
// is the instruction's operand order, which the compiler picks, not the
// accumulation order this pins.
func checkMatMulInto(t testing.TB, a, b []float32, m, k, n int) {
	t.Helper()
	want := refMatMulScalar(a, b, m, k, n)
	got := make([]float32, m*n)
	for i := range got {
		got[i] = float32(i) + 0.5
	}
	MatMulInto(FromSlice(got, m, n), FromSlice(a, m, k), FromSlice(b, k, n))
	for i, w := range want {
		g := got[i]
		if math.Float32bits(g) != math.Float32bits(w) && !(g != g && w != w) {
			t.Fatalf("[%d,%d,%d]: element %d = %v (%#x), want %v (%#x)",
				m, k, n, i, g, math.Float32bits(g), w, math.Float32bits(w))
		}
	}
}

// floatFixture builds operands that walk every branch of the float kernel.
// Even rows of a hold exactly i/2 mod 8 nonzero activations, odd rows a
// random count, so a row chunk's list ends on every remainder mod 4. The
// zeros alternate +0 and −0, and the nonzeros mix normal values with NaN,
// ±Inf and subnormals. b is random but for an Inf, −Inf or NaN in one
// column of every fifth row, which the rows that skip that p must not see.
func floatFixture(rng *RNG, m, k, n int) (a, b []float32) {
	specials := []float32{
		float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)),
		math.Float32frombits(1), -math.Float32frombits(0x007fffff),
	}
	negZero := math.Float32frombits(1 << 31)
	a = make([]float32, m*k)
	for i := 0; i < m; i++ {
		row := a[i*k : (i+1)*k]
		for p := range row {
			if p%2 == 1 {
				row[p] = negZero
			}
		}
		nz := rng.Intn(k + 1)
		if i%2 == 0 {
			nz = min(i/2%8, k)
		}
		for q, p := range rng.Perm(k)[:nz] {
			row[p] = float32(rng.NormFloat64())
			if q%7 == 6 {
				row[p] = specials[(i+q)%len(specials)]
			}
		}
	}
	b = Randn(rng, 1, k, n).Data
	for p := 0; p < k && n > 0; p += 5 {
		b[p*n+p%n] = specials[p%3]
	}
	return a, b
}

// TestMatMulIntoMatchesScalarOrder pins the float kernel to the scalar
// ikj loop bit for bit: widths with every remainder mod 4, k crossing one
// and two list chunks, n past a column tile, empty dimensions, and a
// product large enough for the parallel path — each serially under
// EnterPool and on the default path.
func TestMatMulIntoMatchesScalarOrder(t *testing.T) {
	rng := NewRNG(29)
	shapes := [][3]int{
		{1, 1, 1}, {16, 1, 4}, {16, 8, 5}, {16, 13, 6}, {16, 17, 7},
		{16, nzCap + 5, 9}, {16, 2*nzCap + 3, 3}, {4, 9, colBlock + 3},
		{16, 13, 8}, {16, nzCap + 5, 12},
		{64, 96, 81}, {0, 4, 4}, {4, 0, 5}, {4, 4, 0},
	}
	for _, s := range shapes {
		m, k, n := s[0], s[1], s[2]
		a, b := floatFixture(rng, m, k, n)
		checkMatMulInto(t, a, b, m, k, n)
		exit := EnterPool()
		checkMatMulInto(t, a, b, m, k, n)
		exit()
	}
}

// TestMatMulRowsIntoChecksOperands pins MatMulRowsInto's entry check: an
// operand one element short of its shape, a negative dimension or a shape
// whose element count wraps panics with the shapes before the kernel runs,
// and operands of exactly their size or longer do not.
func TestMatMulRowsIntoChecksOperands(t *testing.T) {
	const m, k, n = 2, 3, 4
	full := func(l int) []float32 {
		s := make([]float32, l)
		for i := range s {
			s[i] = 1
		}
		return s
	}
	cases := []struct {
		name       string
		dst, a, b  []float32
		m, k, n    int
		wantsPanic bool
	}{
		{"exact", full(m * n), full(m * k), full(k * n), m, k, n, false},
		{"longer", full(m*n + 1), full(m*k + 1), full(k*n + 1), m, k, n, false},
		{"short dst", full(m*n - 1), full(m * k), full(k * n), m, k, n, true},
		{"short a", full(m * n), full(m*k - 1), full(k * n), m, k, n, true},
		{"short b", full(m * n), full(m * k), full(k*n - 1), m, k, n, true},
		{"negative m", nil, nil, nil, -1, k, n, true},
		{"negative k", nil, nil, nil, m, -1, n, true},
		{"negative n", nil, nil, nil, m, k, -1, true},
		{"wrapping k×n", nil, nil, nil, 0, 1 << (strconv.IntSize - 2), 4, true},
	}
	for _, c := range cases {
		func() {
			defer func() {
				r := recover()
				if (r != nil) != c.wantsPanic {
					t.Fatalf("%s: panic %v, want one: %v", c.name, r, c.wantsPanic)
				}
				if r != nil && !strings.Contains(fmt.Sprint(r), "MatMulRowsInto [") {
					t.Fatalf("%s: panic %q is not the entry check's", c.name, r)
				}
			}()
			MatMulRowsInto(c.dst, c.a, c.b, c.m, c.k, c.n)
		}()
	}
}

// FuzzMatMulInto derives a shape and both operands from the input — raw
// float32 bit patterns, so NaNs, infinities and subnormals among them, and
// small exact values — and checks the float kernel against the scalar
// reference.
func FuzzMatMulInto(f *testing.F) {
	f.Add(uint8(1), uint8(1), []byte{0, 0, 0x80, 0x7f})
	f.Add(uint8(3), uint8(5), []byte{1, 0, 0, 0x80, 2, 0, 0xc0, 0x7f, 0, 4})
	f.Add(uint8(16), uint8(180), []byte{0x80, 3, 0x81, 0xff})
	f.Fuzz(func(t *testing.T, mb, nb uint8, raw []byte) {
		if len(raw) == 0 {
			return
		}
		val := func(i int) float32 {
			x := raw[i%len(raw)]
			if x&1 == 0 {
				return float32(int8(x)) / 16
			}
			bits := uint32(x) | uint32(raw[(i+1)%len(raw)])<<8 |
				uint32(raw[(i+2)%len(raw)])<<16 | uint32(raw[(i+3)%len(raw)])<<24
			return math.Float32frombits(bits)
		}
		m, n := int(mb%17), int(nb)*3%(colBlock+8)
		k := 1 + len(raw)%(2*nzCap+9)
		a := make([]float32, m*k)
		for i := range a {
			switch raw[(i*7)%len(raw)] & 7 {
			case 0:
				a[i] = 0
			case 1:
				a[i] = math.Float32frombits(1 << 31)
			default:
				a[i] = val(i)
			}
		}
		b := make([]float32, k*n)
		for i := range b {
			b[i] = val(i*5 + 3)
		}
		checkMatMulInto(t, a, b, m, k, n)
	})
}
