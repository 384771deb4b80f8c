package tensor

import (
	"math"
	"slices"
	"testing"
)

func TestScalarHelpers(t *testing.T) {
	x := FromSlice([]float32{1, 2, 3}, 3)
	x.AddScalar(10)
	if x.Data[0] != 11 || x.Data[2] != 13 {
		t.Fatalf("AddScalar = %v", x.Data)
	}
	x.Apply(func(v float32) float32 { return -v })
	if x.Data[1] != -12 {
		t.Fatalf("Apply = %v", x.Data)
	}
	y := x.Map(func(v float32) float32 { return v * 2 })
	if y.Data[0] != -22 || x.Data[0] != -11 {
		t.Fatalf("Map must not mutate source: %v / %v", y.Data, x.Data)
	}
	if s := FromSlice([]float32{3, 3, 3, 3}, 4).Std(); s != 0 {
		t.Fatalf("Std of constant = %v", s)
	}
	std := FromSlice([]float32{1, -1, 1, -1}, 4).Std()
	if math.Abs(float64(std)-1) > 1e-6 {
		t.Fatalf("Std = %v, want 1", std)
	}
	var empty Tensor
	empty.Data = nil
	if (&Tensor{shape: []int{0}, Data: nil}).Mean() != 0 {
		t.Fatal("Mean of empty should be 0")
	}
}

func TestShapeMismatchPanics(t *testing.T) {
	a := New(2, 2)
	b := New(3)
	cases := []struct {
		name string
		f    func()
	}{
		{"AddInPlace", func() { a.AddInPlace(b) }},
		{"Axpy", func() { a.Axpy(1, b) }},
		{"AddRowVector", func() { a.AddRowVector(b) }},
		{"CopyFrom", func() { a.CopyFrom(b) }},
		{"MatMulInto", func() { MatMulInto(New(3, 3), New(2, 2), New(2, 2)) }},
		{"SumRowsInto", func() { a.SumRowsInto(b) }},
		{"RowSlice", func() { New(2, 2).RowSlice(1, 5) }},
		{"Reshape-two-infer", func() { New(4).Reshape(-1, -1) }},
		{"Subset-negative-dim", func() { New(-1) }},
		{"Min-empty", func() { FromSlice(nil, 0).Min() }},
		{"Max-empty", func() { FromSlice(nil, 0).Max() }},
		{"ArgMax-empty", func() { FromSlice(nil, 0).ArgMax() }},
		{"SumRowsInto-non2D", func() { New(2).SumRowsInto(New(2)) }},
	}
	for _, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", c.name)
				}
			}()
			c.f()
		}()
	}
}

func TestRNGSplitIndependence(t *testing.T) {
	root := NewRNG(77)
	a := root.Split()
	b := root.Split()
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("split streams collide %d/64 times", same)
	}
	if f := a.Float32(); f < 0 || f >= 1 {
		t.Fatalf("Float32 out of range: %v", f)
	}
	// Exp has mean 1.
	var sum float64
	for i := 0; i < 20000; i++ {
		sum += a.Exp()
	}
	if math.Abs(sum/20000-1) > 0.05 {
		t.Fatalf("Exp mean = %v", sum/20000)
	}
}

func TestRNGIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) should panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestParallelSingleAndLargeMatmuls(t *testing.T) {
	// Single-element Parallel takes the serial fast path.
	hit := 0
	Parallel(1, func(lo, hi int) { hit += hi - lo })
	if hit != 1 {
		t.Fatalf("Parallel(1) visited %d", hit)
	}
	// The Into forms overwrite whatever a reused destination held, to the
	// bits of a fresh destination, on the parallel branch too.
	rng := NewRNG(5)
	c := Randn(rng, 1, 96, 128)
	d := Randn(rng, 1, 128, 80)
	dst := Full(7, 96, 80)
	MatMulInto(dst, c, d)
	sums, fresh := Full(7, 128), New(128)
	c.SumRowsInto(sums)
	c.SumRowsInto(fresh)
	if !slices.Equal(dst.Data, matMul(c, d).Data) || !slices.Equal(sums.Data, fresh.Data) {
		t.Fatal("an Into form over a dirty destination differs from the allocating form")
	}
}

func TestStringAndRandUniform(t *testing.T) {
	x := FromSlice([]float32{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 10)
	if x.String() == "" {
		t.Fatal("empty String()")
	}
	u := RandUniform(NewRNG(1), 2, 3, 100)
	if u.Min() < 2 || u.Max() >= 3 {
		t.Fatalf("RandUniform out of [2,3): min %v max %v", u.Min(), u.Max())
	}
}
