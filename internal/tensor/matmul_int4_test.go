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

func refMatMulInt4LHS(dst []float32, aPacked []byte, b []int8, m, k, n int, rowScales, colScales []float32) {
	rb := Int4PackedLen(k)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var acc int32
			for p := 0; p < k; p++ {
				by := aPacked[i*rb+p>>1]
				var av int32
				if p&1 == 0 {
					av = int32(int8(by<<4) >> 4)
				} else {
					av = int32(int8(by) >> 4)
				}
				acc += av * int32(b[p*n+j])
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

func TestMatMulInt4LHSMatchesScalarReference(t *testing.T) {
	shapes := [][3]int{{1, 1, 1}, {3, 5, 7}, {8, 9, 30}, {6, 27, 14}}
	for _, s := range shapes {
		m, k, n := s[0], s[1], s[2]
		b, _, _, rs, _ := int4Operands(t, m, k, n) // reuse generator for int8 side
		aCodes := make([]int8, m*k)
		for i := range aCodes {
			aCodes[i] = int8(i*5%16 - 8)
		}
		ap, err := PackInt4Matrix(aCodes, m, k)
		if err != nil {
			t.Fatal(err)
		}
		bInt8 := b[:0:0]
		bInt8 = append(bInt8, make([]int8, k*n)...)
		for i := range bInt8 {
			bInt8[i] = int8(i*29%255 - 127)
		}
		cs := make([]float32, n)
		for j := range cs {
			cs[j] = 1 + float32(j)*0.5
		}
		got := make([]float32, m*n)
		want := make([]float32, m*n)
		MatMulInt4LHS(got, ap, bInt8, m, k, n, rs, cs)
		refMatMulInt4LHS(want, ap, bInt8, m, k, n, rs, cs)
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

func TestPackInt4RoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 2, 5, 16, 33} {
		codes := make([]int8, n)
		for i := range codes {
			codes[i] = int8(i%16 - 8)
		}
		packed, err := PackInt4(codes)
		if err != nil {
			t.Fatalf("n=%d: pack: %v", n, err)
		}
		if len(packed) != Int4PackedLen(n) {
			t.Fatalf("n=%d: packed length %d, want %d", n, len(packed), Int4PackedLen(n))
		}
		got, err := UnpackInt4(packed, n)
		if err != nil {
			t.Fatalf("n=%d: unpack: %v", n, err)
		}
		for i := range codes {
			if got[i] != codes[i] {
				t.Fatalf("n=%d: code %d round-tripped to %d, want %d", n, i, got[i], codes[i])
			}
		}
	}
}

func TestPackInt4RejectsOutOfRange(t *testing.T) {
	if _, err := PackInt4([]int8{0, 8}); err == nil {
		t.Fatal("PackInt4 accepted code 8")
	}
	if _, err := PackInt4([]int8{-9}); err == nil {
		t.Fatal("PackInt4 accepted code -9")
	}
}

func TestUnpackInt4RejectsBadBuffers(t *testing.T) {
	packed, err := PackInt4([]int8{1, -2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := UnpackInt4(packed[:1], 3); err == nil {
		t.Fatal("UnpackInt4 accepted a truncated buffer")
	}
	if _, err := UnpackInt4(append(packed, 0), 3); err == nil {
		t.Fatal("UnpackInt4 accepted an oversized buffer")
	}
	bad := append([]byte(nil), packed...)
	bad[len(bad)-1] |= 0xF0 // poison the pad nibble
	if _, err := UnpackInt4(bad, 3); err == nil {
		t.Fatal("UnpackInt4 accepted a nonzero pad nibble")
	}
	if _, err := UnpackInt4(nil, -1); err == nil {
		t.Fatal("UnpackInt4 accepted a negative count")
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
	row1, err := UnpackInt4(packed[2:4], 3)
	if err != nil {
		t.Fatal(err)
	}
	if row1[0] != -1 || row1[1] != -2 || row1[2] != -3 {
		t.Fatalf("row 1 decoded to %v", row1)
	}
	if _, err := PackInt4Matrix(codes, 2, 2); err == nil {
		t.Fatal("PackInt4Matrix accepted a mismatched shape")
	}
}
