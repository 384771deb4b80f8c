package tensor

import (
	"runtime"
	"testing"
)

// refMatMulInt4 is the naive scalar triple loop the blocked kernels must
// match bit for bit: unpack every code on demand, accumulate in int32.
func refMatMulInt4(dst []float32, a []int8, bPacked []byte, m, k, n int, rowScales, colScales []float32) {
	rb := Int4PackedLen(n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var acc int32
			for p := 0; p < k; p++ {
				by := bPacked[p*rb+j>>1]
				var bv int32
				if j&1 == 0 {
					bv = int32(int8(by<<4) >> 4)
				} else {
					bv = int32(int8(by) >> 4)
				}
				acc += int32(a[i*k+p]) * bv
			}
			dst[i*n+j] = float32(acc) * rowScales[i] * colScales[j]
		}
	}
}

// int4Operands builds deterministic operands covering the full code range,
// zeros (the skip path) and the ±8/7 extremes.
func int4Operands(t *testing.T, m, k, n int) (a []int8, bCodes []int8, bPacked []byte, rs, cs []float32) {
	t.Helper()
	a = make([]int8, m*k)
	for i := range a {
		a[i] = int8(i*37%255 - 127)
		if i%11 == 0 {
			a[i] = 0
		}
	}
	bCodes = make([]int8, k*n)
	for i := range bCodes {
		bCodes[i] = int8(i*13%16 - 8) // full int4 range [-8,7]
		if i%7 == 0 {
			bCodes[i] = 0
		}
	}
	var err error
	bPacked, err = PackInt4Matrix(bCodes, k, n)
	if err != nil {
		t.Fatalf("PackInt4Matrix: %v", err)
	}
	rs = make([]float32, m)
	for i := range rs {
		rs[i] = 0.5 + float32(i)*0.25
	}
	cs = make([]float32, n)
	for j := range cs {
		cs[j] = 0.125 + float32(j)*0.0625
	}
	return a, bCodes, bPacked, rs, cs
}

func TestMatMulInt4MatchesScalarReference(t *testing.T) {
	shapes := [][3]int{
		{1, 1, 1}, {3, 5, 7}, {4, 8, 10}, {16, 33, 21}, {2, 9, 1},
		{5, 16, colBlock + 3}, // spans a column-tile boundary with an odd tail
		{3, 2*nzCap + 5, 7},   // walks the nonzero list in chunks
	}
	for _, s := range shapes {
		m, k, n := s[0], s[1], s[2]
		a, _, bp, rs, cs := int4Operands(t, m, k, n)
		got := make([]float32, m*n)
		want := make([]float32, m*n)
		MatMulInt4(got, a, bp, m, k, n, rs, cs)
		refMatMulInt4(want, a, bp, m, k, n, rs, cs)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("[%d,%d,%d]: got[%d]=%v want %v", m, k, n, i, got[i], want[i])
			}
		}
	}
}

// TestMatMulInt4ParallelBitIdentical forces the parallel path (work above
// parallelThreshold) and checks it against the scalar reference at several
// worker counts — the any-worker-count bit-identity contract.
func TestMatMulInt4ParallelBitIdentical(t *testing.T) {
	m, k, n := 64, 64, 64 // 262144 MACs > parallelThreshold
	if m*k*n < parallelThreshold {
		t.Fatalf("fixture too small to trigger the parallel path")
	}
	a, _, bp, rs, cs := int4Operands(t, m, k, n)
	want := make([]float32, m*n)
	refMatMulInt4(want, a, bp, m, k, n, rs, cs)
	for _, workers := range []int{1, 4, 16} {
		prev := runtime.GOMAXPROCS(workers)
		got := make([]float32, m*n)
		MatMulInt4(got, a, bp, m, k, n, rs, cs)
		runtime.GOMAXPROCS(prev)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: got[%d]=%v want %v", workers, i, got[i], want[i])
			}
		}
	}
}

// packRow packs codes as a one-row matrix: the two-per-byte encoding
// itself, which unpackInt4 inverts.
func packRow(codes []int8) ([]byte, error) { return PackInt4Matrix(codes, 1, len(codes)) }

// unpackInt4 is the round-trip checks' decoder: count codes from packed,
// low nibble first, each sign-extended from four bits.
func unpackInt4(packed []byte, count int) []int8 {
	out := make([]int8, count)
	for i := range out {
		if i&1 == 0 {
			out[i] = int8(packed[i>>1]<<4) >> 4
		} else {
			out[i] = int8(packed[i>>1]) >> 4
		}
	}
	return out
}

func TestPackInt4RoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 2, 5, 16, 33} {
		codes := make([]int8, n)
		for i := range codes {
			codes[i] = int8(i%16 - 8)
		}
		packed, err := packRow(codes)
		if err != nil {
			t.Fatalf("n=%d: pack: %v", n, err)
		}
		if len(packed) != Int4PackedLen(n) {
			t.Fatalf("n=%d: packed length %d, want %d", n, len(packed), Int4PackedLen(n))
		}
		got := unpackInt4(packed, n)
		for i := range codes {
			if got[i] != codes[i] {
				t.Fatalf("n=%d: code %d round-tripped to %d, want %d", n, i, got[i], codes[i])
			}
		}
	}
}

func TestPackInt4RejectsOutOfRange(t *testing.T) {
	if _, err := packRow([]int8{0, 8}); err == nil {
		t.Fatal("PackInt4Matrix accepted code 8")
	}
	if _, err := packRow([]int8{-9}); err == nil {
		t.Fatal("PackInt4Matrix accepted code -9")
	}
}

func TestPackInt4MatrixRowAlignment(t *testing.T) {
	// 3 columns → 2 bytes per row; row 1 must start at byte 2.
	codes := []int8{1, 2, 3, -1, -2, -3}
	packed, err := PackInt4Matrix(codes, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(packed) != 4 {
		t.Fatalf("packed length %d, want 4", len(packed))
	}
	if row1 := unpackInt4(packed[2:4], 3); row1[0] != -1 || row1[1] != -2 || row1[2] != -3 {
		t.Fatalf("row 1 decoded to %v", row1)
	}
	if _, err := PackInt4Matrix(codes, 2, 2); err == nil {
		t.Fatal("PackInt4Matrix accepted a mismatched shape")
	}
}

// TestPackInt4MatrixAllocatesOnce pins PackInt4Matrix to its one output
// allocation: rows are packed in place, odd columns and all.
func TestPackInt4MatrixAllocatesOnce(t *testing.T) {
	codes := make([]int8, 9*7)
	for i := range codes {
		codes[i] = int8(i%16 - 8)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := PackInt4Matrix(codes, 9, 7); err != nil {
			t.Fatal(err)
		}
	}); allocs != 1 {
		t.Fatalf("PackInt4Matrix allocates %.1f times per call, want 1", allocs)
	}
}
