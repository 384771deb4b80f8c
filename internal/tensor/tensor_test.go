package tensor

import (
	"bytes"
	"encoding/binary"
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func TestNewZeroFilled(t *testing.T) {
	x := New(3, 4)
	if x.Size() != 12 {
		t.Fatalf("Size = %d, want 12", x.Size())
	}
	for i, v := range x.Data {
		if v != 0 {
			t.Fatalf("Data[%d] = %v, want 0", i, v)
		}
	}
	if x.Dim(0) != 3 || x.Dim(1) != 4 {
		t.Fatalf("Dim(0)/Dim(1) = %d,%d", x.Dim(0), x.Dim(1))
	}
}

func TestFromSliceSharesData(t *testing.T) {
	d := []float32{1, 2, 3, 4}
	x := FromSlice(d, 2, 2)
	d[0] = 9
	if x.At2(0, 0) != 9 {
		t.Fatal("FromSlice must not copy the slice")
	}
}

func TestFromSliceLengthMismatchPanics(t *testing.T) {
	defer expectPanic(t, "FromSlice")
	FromSlice([]float32{1, 2, 3}, 2, 2)
}

func TestReshape(t *testing.T) {
	x := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	y := x.Reshape(3, 2)
	if y.At2(2, 1) != 6 {
		t.Fatalf("Reshape content wrong: %v", y.Data)
	}
	y.Set2(0, 0, 42)
	if x.At2(0, 0) != 42 {
		t.Fatal("Reshape must share data")
	}
	z := x.Reshape(-1, 2)
	if z.Dim(0) != 3 {
		t.Fatalf("inferred dim = %d, want 3", z.Dim(0))
	}
}

func TestReshapeBadSizePanics(t *testing.T) {
	defer expectPanic(t, "Reshape")
	New(2, 3).Reshape(4, 2)
}

func TestRowAndRowSliceViews(t *testing.T) {
	x := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 3, 2)
	s := x.RowSlice(1, 3)
	if s.Dim(0) != 2 || s.At2(1, 1) != 6 {
		t.Fatalf("RowSlice = %v", s.Data)
	}
	s.Set2(0, 0, -1)
	if x.At2(1, 0) != -1 {
		t.Fatal("RowSlice must be a view")
	}
}

func TestTranspose(t *testing.T) {
	r := NewRNG(1)
	x := Randn(r, 1, 37, 53)
	y := transpose(x)
	for i := 0; i < 37; i++ {
		for j := 0; j < 53; j++ {
			if x.At2(i, j) != y.At2(j, i) {
				t.Fatalf("transpose mismatch at %d,%d", i, j)
			}
		}
	}
	z := transpose(y)
	if !ApproxEqual(x, z, 0) {
		t.Fatal("double transpose is not identity")
	}
}

func TestInPlaceOps(t *testing.T) {
	a := FromSlice([]float32{1, 2}, 2)
	b := FromSlice([]float32{10, 20}, 2)
	a.AddInPlace(b)
	if a.Data[1] != 22 {
		t.Fatalf("AddInPlace = %v", a.Data)
	}
	a.Axpy(0.5, b)
	if a.Data[0] != 16 {
		t.Fatalf("Axpy = %v", a.Data)
	}
	a.Scale(2)
	if a.Data[0] != 32 {
		t.Fatalf("Scale = %v", a.Data)
	}
}

func TestReductions(t *testing.T) {
	x := FromSlice([]float32{1, 2, 3, 4}, 4)
	if x.Sum() != 10 {
		t.Fatalf("Sum = %v", x.Sum())
	}
	if x.Mean() != 2.5 {
		t.Fatalf("Mean = %v", x.Mean())
	}
	if x.Min() != 1 || x.Max() != 4 {
		t.Fatalf("Min/Max = %v/%v", x.Min(), x.Max())
	}
	if x.ArgMax() != 3 {
		t.Fatalf("ArgMax = %d", x.ArgMax())
	}
	if math.Abs(float64(x.Variance())-1.25) > 1e-6 {
		t.Fatalf("Variance = %v, want 1.25", x.Variance())
	}
}

func TestElementwiseOps(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4}, 2, 2)
	b := FromSlice([]float32{4, 3, 2, 1}, 2, 2)
	a.AddInPlace(b)
	a.Axpy(-2, b)
	if !slices.Equal(a.Scale(2).Data, []float32{-6, -2, 2, 6}) {
		t.Fatalf("2·(a + b − 2b) = %v", a.Data)
	}
}

func TestArgMaxRows(t *testing.T) {
	x := FromSlice([]float32{1, 5, 2, 9, 0, 3}, 2, 3)
	got := x.ArgMaxRows()
	if got[0] != 1 || got[1] != 0 {
		t.Fatalf("ArgMaxRows = %v", got)
	}
}

func TestSumRowsAndAddRowVector(t *testing.T) {
	x := FromSlice([]float32{1, 2, 3, 4}, 2, 2)
	s := New(2)
	x.SumRowsInto(s)
	if s.Data[0] != 4 || s.Data[1] != 6 {
		t.Fatalf("SumRowsInto = %v", s.Data)
	}
	x.AddRowVector(FromSlice([]float32{10, 20}, 2))
	if x.At2(1, 1) != 24 {
		t.Fatalf("AddRowVector = %v", x.Data)
	}
}

func TestMatMulSmallKnown(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	b := FromSlice([]float32{7, 8, 9, 10, 11, 12}, 3, 2)
	c := matMul(a, b)
	want := []float32{58, 64, 139, 154}
	for i, w := range want {
		if c.Data[i] != w {
			t.Fatalf("MatMulInto[%d] = %v, want %v", i, c.Data[i], w)
		}
	}
}

func TestMatMulMismatchPanics(t *testing.T) {
	defer expectPanic(t, "MatMulInto")
	MatMulInto(New(2, 2), New(2, 3), New(4, 2))
}

// matMul is the allocating a × b the tests compare against.
func matMul(a, b *Tensor) *Tensor {
	out := New(a.Dim(0), b.Dim(1))
	MatMulInto(out, a, b)
	return out
}

// transpose returns a new tensor holding the transpose of a 2D tensor.
func transpose(t *Tensor) *Tensor {
	r, c := t.Dim(0), t.Dim(1)
	out := New(c, r)
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			out.Set2(j, i, t.At2(i, j))
		}
	}
	return out
}

// add returns a + b element-wise as a new tensor.
func add(a, b *Tensor) *Tensor {
	out := a.Clone()
	out.AddInPlace(b)
	return out
}

// matmulNaive is the O(mnk) reference used to validate the optimized kernels.
func matmulNaive(a, b *Tensor) *Tensor {
	m, k := a.Dim(0), a.Dim(1)
	n := b.Dim(1)
	out := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for p := 0; p < k; p++ {
				s += float64(a.At2(i, p)) * float64(b.At2(p, j))
			}
			out.Set2(i, j, float32(s))
		}
	}
	return out
}

func TestMatMulMatchesNaiveLarge(t *testing.T) {
	r := NewRNG(7)
	// 64·96·80 = 491 520 MACs.
	a := Randn(r, 1, 64, 96)
	b := Randn(r, 1, 96, 80)
	got := matMul(a, b)
	want := matmulNaive(a, b)
	if !ApproxEqual(got, want, 1e-3) {
		t.Fatal("MatMulInto deviates from naive reference")
	}
}

func TestClampAndCountNonZero(t *testing.T) {
	x := FromSlice([]float32{-2, 0, 0.5, 3}, 4)
	x.Clamp(-1, 1)
	if x.Data[0] != -1 || x.Data[3] != 1 {
		t.Fatalf("Clamp = %v", x.Data)
	}
	if x.CountNonZero() != 3 {
		t.Fatalf("CountNonZero = %d", x.CountNonZero())
	}
}

func TestSerializationRoundTrip(t *testing.T) {
	r := NewRNG(3)
	x := Randn(r, 2.5, 4, 5, 6)
	var buf bytes.Buffer
	if _, err := x.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	var y Tensor
	if _, err := y.ReadFrom(&buf); err != nil {
		t.Fatalf("ReadFrom: %v", err)
	}
	if !ApproxEqual(x, &y, 0) {
		t.Fatal("serialization round trip changed values")
	}
}

func TestReadFromRejectsGarbage(t *testing.T) {
	// header builds a TMLT1 stream of the given dims with no data after it.
	header := func(dims ...uint32) []byte {
		b := binary.LittleEndian.AppendUint32([]byte(magic), uint32(len(dims)))
		for _, d := range dims {
			b = binary.LittleEndian.AppendUint32(b, d)
		}
		return b
	}
	cases := map[string][]byte{
		"not a tensor stream": []byte("not a tensor stream"),
		// 65536^4 = 2^64 wraps the element count to 0, which an empty
		// payload then satisfies.
		"dims whose product wraps to zero": header(65536, 65536, 65536, 65536),
		"zero dimension":                   header(3, 0),
		"one element over the cap":         header(1<<14, 1<<14+1),
		"truncated data":                   header(2, 2),
	}
	for name, stream := range cases {
		var y Tensor
		if _, err := y.ReadFrom(bytes.NewReader(stream)); err == nil {
			t.Errorf("ReadFrom accepted %s as shape %v", name, y.Shape())
		}
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must give same stream")
		}
	}
	c := NewRNG(43)
	same := true
	a2 := NewRNG(42)
	for i := 0; i < 10; i++ {
		if a2.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds gave identical streams")
	}
}

func TestRNGUniformMoments(t *testing.T) {
	r := NewRNG(5)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("uniform mean = %v", mean)
	}
	variance := sumSq/n - mean*mean
	if math.Abs(variance-1.0/12) > 0.01 {
		t.Fatalf("uniform variance = %v", variance)
	}
}

func TestRNGNormalMoments(t *testing.T) {
	r := NewRNG(6)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean = %v", mean)
	}
	if math.Abs(sumSq/n-1) > 0.03 {
		t.Fatalf("normal variance = %v", sumSq/n)
	}
}

func TestRNGPermIsPermutation(t *testing.T) {
	r := NewRNG(9)
	p := r.Perm(100)
	seen := make([]bool, 100)
	for _, v := range p {
		if v < 0 || v >= 100 || seen[v] {
			t.Fatalf("Perm produced invalid permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestRNGDirichletSumsToOne(t *testing.T) {
	r := NewRNG(10)
	for _, alpha := range []float64{0.1, 1, 10} {
		d := r.Dirichlet(alpha, 8)
		var s float64
		for _, v := range d {
			if v < 0 {
				t.Fatalf("Dirichlet produced negative weight %v", v)
			}
			s += v
		}
		if math.Abs(s-1) > 1e-9 {
			t.Fatalf("Dirichlet(alpha=%v) sums to %v", alpha, s)
		}
	}
}

func TestRNGGammaMean(t *testing.T) {
	r := NewRNG(12)
	for _, alpha := range []float64{0.5, 2, 7} {
		var s float64
		const n = 50000
		for i := 0; i < n; i++ {
			s += r.Gamma(alpha)
		}
		if math.Abs(s/n-alpha) > 0.08*alpha+0.05 {
			t.Fatalf("Gamma(%v) sample mean = %v", alpha, s/n)
		}
	}
}

// Property: (A×B)ᵀ == Bᵀ×Aᵀ for random small matrices.
func TestTransposedProductProperty(t *testing.T) {
	r := NewRNG(20)
	f := func(seed uint64) bool {
		rr := NewRNG(seed)
		m, k, n := 1+rr.Intn(12), 1+rr.Intn(12), 1+rr.Intn(12)
		a := Randn(r, 1, m, k)
		b := Randn(r, 1, k, n)
		lhs := transpose(matMul(a, b))
		rhs := matMul(transpose(b), transpose(a))
		return ApproxEqual(lhs, rhs, 1e-4)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: matmul distributes over addition: A×(B+C) == A×B + A×C.
func TestMatMulDistributiveProperty(t *testing.T) {
	r := NewRNG(21)
	f := func(seed uint64) bool {
		rr := NewRNG(seed)
		m, k, n := 1+rr.Intn(10), 1+rr.Intn(10), 1+rr.Intn(10)
		a := Randn(r, 1, m, k)
		b := Randn(r, 1, k, n)
		c := Randn(r, 1, k, n)
		lhs := matMul(a, add(b, c))
		rhs := add(matMul(a, b), matMul(a, c))
		return ApproxEqual(lhs, rhs, 1e-3)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: serialization round-trips arbitrary shapes.
func TestSerializationProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rr := NewRNG(seed)
		shape := make([]int, 1+rr.Intn(4))
		for i := range shape {
			shape[i] = 1 + rr.Intn(6)
		}
		x := Randn(rr, 3, shape...)
		var buf bytes.Buffer
		if _, err := x.WriteTo(&buf); err != nil {
			return false
		}
		var y Tensor
		if _, err := y.ReadFrom(&buf); err != nil {
			return false
		}
		return ApproxEqual(x, &y, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func expectPanic(t *testing.T, op string) {
	t.Helper()
	if recover() == nil {
		t.Fatalf("%s: expected panic", op)
	}
}
