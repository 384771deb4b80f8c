package tensor

import (
	"slices"
	"testing"
)

func TestScalarHelpers(t *testing.T) {
	x := FromSlice([]float32{-11, -12, -13}, 3)
	y := x.Map(func(v float32) float32 { return v * 2 })
	if y.Data[0] != -22 || x.Data[0] != -11 {
		t.Fatalf("Map must not mutate source: %v / %v", y.Data, x.Data)
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
		{"Subset-negative-dim", func() { New(-1) }},
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

// TestRNGSplitIndependence: generators seeded by consecutive draws of one
// root run independent streams.
func TestRNGSplitIndependence(t *testing.T) {
	root := NewRNG(77)
	a := NewRNG(root.Uint64())
	b := NewRNG(root.Uint64())
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
	// The Into forms overwrite whatever a reused destination held, to the
	// bits of a fresh destination, at a shape past 2^17 MACs too.
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
	if lo, hi := slices.Min(u.Data), slices.Max(u.Data); lo < 2 || hi >= 3 {
		t.Fatalf("RandUniform out of [2,3): min %v max %v", lo, hi)
	}
}
