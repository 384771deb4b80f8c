package tensor

import (
	"math"
	"runtime"
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

// TestMatMulInt8MatchesNaive pins the blocked parallel kernel to the
// scalar reference across shapes that cross the column-block and
// parallelism thresholds, including degenerate empty dimensions.
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

// TestMatMulInt8WorkerCountIndependent forces the serial path via the pool
// guard and compares against the parallel result: integer accumulation
// makes them bit-identical.
func TestMatMulInt8WorkerCountIndependent(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("single-core environment exercises only the serial kernel")
	}
	rng := NewRNG(72)
	m, k, n := 96, 64, 80 // above parallelThreshold
	a, b, rs, cs := int8Fixture(rng, m, k, n)
	parallel := make([]float32, m*n)
	MatMulInt8(parallel, a, b, m, k, n, rs, cs)
	exit := EnterPool() // degrades the kernel to serial
	serial := make([]float32, m*n)
	MatMulInt8(serial, a, b, m, k, n, rs, cs)
	exit()
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("element %d: serial %v != parallel %v", i, serial[i], parallel[i])
		}
	}
}

// pairsFixture builds operands that walk every branch of the pairs
// kernel: rows cycle through all-zero, fully dense at the extreme codes
// −128, −127 and 127, fully dense at random codes, and half zero (the
// post-ReLU case); weights span the whole int8 range, extremes included.
func pairsFixture(rng *RNG, m, k, n int) (a, b []int8, rs, cs []float32) {
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

// checkPairs runs MatMulInt8Pairs over b widened by PackInt8Pairs and
// fails unless every output bit equals the naive reference's.
func checkPairs(t testing.TB, a, b []int8, m, k, n int, rs, cs []float32) {
	t.Helper()
	want := refMatMulInt8(a, b, m, k, n, rs, cs)
	got := make([]float32, m*n)
	MatMulInt8Pairs(got, a, PackInt8Pairs(b, k, n), m, k, n, rs, cs)
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("[%d,%d,%d]: element %d = %v, want %v (must be bit-identical)", m, k, n, i, got[i], want[i])
		}
	}
}

// TestMatMulInt8PairsMatchesNaive pins the pairs kernel to the scalar
// reference on odd n (the pad column), k = 1, k past the nonzero list's
// capacity (the chunked walk), n past a column tile, empty dimensions, and
// a product large enough for the parallel path — each serially under
// EnterPool and on the default path.
func TestMatMulInt8PairsMatchesNaive(t *testing.T) {
	rng := NewRNG(74)
	shapes := [][3]int{
		{1, 1, 1}, {4, 1, 2}, {5, 1, 9}, {4, 7, 5}, {8, 23, 11},
		{4, nzCap + 1, 7}, {8, 2*nzCap + 9, 2*pairTile + 3},
		{64, 96, 81}, {0, 4, 4}, {4, 0, 5}, {4, 4, 0},
	}
	for _, s := range shapes {
		m, k, n := s[0], s[1], s[2]
		a, b, rs, cs := pairsFixture(rng, m, k, n)
		checkPairs(t, a, b, m, k, n, rs, cs)
		exit := EnterPool()
		checkPairs(t, a, b, m, k, n, rs, cs)
		exit()
	}
}

// TestMatMulInt8PairsOverflowBound runs the worst case the documented k
// bound admits: k = 2^17 − 1 MACs of ±128·128 per output, so the low
// column's sum reaches 2^31 − 2^14, one product short of int32 overflow,
// while its neighbour sums to the most negative value the codes allow.
func TestMatMulInt8PairsOverflowBound(t *testing.T) {
	const k, n = 1<<17 - 1, 3
	a := make([]int8, k)
	b := make([]int8, k*n)
	for p := range a {
		a[p] = -128
		b[p*n], b[p*n+1], b[p*n+2] = -128, 127, -128
	}
	checkPairs(t, a, b, 1, k, n, []float32{1}, []float32{1, 1, 1})
}

// FuzzMatMulInt8Pairs derives a shape and both operands from the input and
// checks the pairs kernel against the naive reference bit for bit.
func FuzzMatMulInt8Pairs(f *testing.F) {
	f.Add(uint8(1), uint8(1), []byte{0x80, 0x81, 0x7f})
	f.Add(uint8(3), uint8(5), []byte{0, 0, 1, 0xff, 0x80, 0, 0x7f, 2, 0, 0})
	f.Add(uint8(16), uint8(129), []byte{0x80})
	f.Fuzz(func(t *testing.T, mb, nb uint8, raw []byte) {
		if len(raw) == 0 {
			return
		}
		m, n := int(mb%17), int(nb)%(2*pairTile+5)
		k := 1 + len(raw)%(nzCap+40)
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
		checkPairs(t, a, b, m, k, n, rs, cs)
	})
}
