package nn

import (
	"math"
	"slices"
	"testing"

	"tinymlops/internal/tensor"
)

// matMul returns a × b through the forward kernel.
func matMul(a, b *tensor.Tensor) *tensor.Tensor {
	out := tensor.New(a.Dim(0), b.Dim(1))
	tensor.MatMulInto(out, a, b)
	return out
}

// transposed returns a new tensor holding the transpose of a 2D tensor.
func transposed(t *tensor.Tensor) *tensor.Tensor {
	return tensor.FromSlice(transpose(nil, t.Data, t.Dim(0), t.Dim(1)), t.Dim(1), t.Dim(0))
}

// sparseRandn is a random [rows, cols] tensor with about a third of its
// elements zero, so the kernel's zero skip is exercised.
func sparseRandn(rng *tensor.RNG, rows, cols int) *tensor.Tensor {
	t := tensor.Randn(rng, 1, rows, cols)
	for i := range t.Data {
		if rng.Intn(3) == 0 {
			t.Data[i] = 0
		}
	}
	return t
}

// TestBackwardProductsAreTransposeThenMatMul: both backward products of a
// dense layer and of a convolution are, bit for bit, the forward kernel run
// on an explicitly transposed operand — at a size that takes the kernel's
// parallel branch too.
func TestBackwardProductsAreTransposeThenMatMul(t *testing.T) {
	rng := tensor.NewRNG(31)
	for _, sz := range [][3]int{{5, 7, 3}, {64, 48, 48}} {
		in, out, b := sz[0], sz[1], sz[2]
		d := NewDense(in, out, rng)
		x, g := sparseRandn(rng, b, in), sparseRandn(rng, b, out)
		d.Forward(x, true)
		dx := d.Backward(g)
		if !slices.Equal(d.dW.get(in, out).Data, matMul(transposed(x), g).Data) {
			t.Errorf("dense %v: dW differs from xᵀ·g", sz)
		}
		if !slices.Equal(dx.Data, matMul(g, transposed(d.W.Value)).Data) {
			t.Errorf("dense %v: dx differs from g·Wᵀ", sz)
		}
	}

	c := NewConv2D(2, 3, 3, 3, 1, 1, rng)
	x := tensor.Randn(rng, 1, 3, 2, 6, 6)
	c.Forward(x, true)
	g := tensor.Randn(rng, 1, 3, 3, 6, 6)
	dx := c.Backward(g)
	win := c.window(6, 6)
	wantW, wantX := tensor.New(3, win.Taps()), tensor.New(3, 2, 6, 6)
	for n := 0; n < 3; n++ {
		gn := tensor.FromSlice(g.Data[n*3*36:(n+1)*3*36], 3, 36)
		cols := tensor.FromSlice(c.lastCols[n*win.Taps()*36:(n+1)*win.Taps()*36], win.Taps(), 36)
		wantW.AddInPlace(matMul(gn, transposed(cols)))
		tensor.Col2im(wantX.Data[n*72:(n+1)*72], matMul(transposed(c.W.Value), gn).Data, win)
	}
	if !slices.Equal(c.W.Grad.Data, wantW.Data) {
		t.Error("conv: dW differs from Σ g·colsᵀ")
	}
	if !slices.Equal(dx.Data, wantX.Data) {
		t.Error("conv: dx differs from col2im(Wᵀ·g)")
	}
}

// TestBackwardNonFiniteWeights pins what a backward product does with a
// ±0 factor against an infinite one. The forward kernel skips a ±0 on its
// left operand, which for g·Wᵀ is the gradient: a dense layer's dx is
// finite where a zero gradient meets an infinite weight (the dot-product
// loop before it gave NaN), and so is a convolution's dW where a zero
// gradient meets an infinite input. A convolution's dx is Wᵀ·g, whose left
// operand is the weight: there a zero weight is skipped and a zero gradient
// times an infinite weight is NaN, as it always was.
func TestBackwardNonFiniteWeights(t *testing.T) {
	inf := float32(math.Inf(1))
	rng := tensor.NewRNG(32)

	d := NewDense(2, 2, rng)
	copy(d.W.Value.Data, []float32{inf, 1, 1, 1}) // W[0][0] = +Inf
	d.Forward(tensor.FromSlice([]float32{1, 1}, 1, 2), true)
	dx := d.Backward(tensor.FromSlice([]float32{0, 1}, 1, 2))
	if !slices.Equal(dx.Data, []float32{1, 1}) {
		t.Errorf("dense dx = %v, want [1 1]: the zero gradient's product with +Inf is skipped", dx.Data)
	}

	// A 1×1 convolution over a 1×2 map: cols is the map, dW = Σ g·x.
	c := NewConv2D(1, 1, 1, 1, 1, 0, rng)
	c.W.Value.Data[0] = inf
	c.Forward(tensor.FromSlice([]float32{inf, 2}, 1, 1, 1, 2), true)
	dx = c.Backward(tensor.FromSlice([]float32{0, 1}, 1, 1, 1, 2))
	if got := c.W.Grad.Data[0]; got != 2 {
		t.Errorf("conv dW = %v, want 2: the zero gradient's product with the +Inf input is skipped", got)
	}
	if !math.IsNaN(float64(dx.Data[0])) || dx.Data[1] != inf {
		t.Errorf("conv dx = %v, want [NaN +Inf]: Wᵀ·g skips zero weights, not zero gradients", dx.Data)
	}
	c.W.Value.Data[0] = 0
	dx = c.Backward(tensor.FromSlice([]float32{inf, 1}, 1, 1, 1, 2))
	if !slices.Equal(dx.Data, []float32{0, 0}) {
		t.Errorf("conv dx = %v, want [0 0]: a zero weight's product with +Inf is skipped", dx.Data)
	}
}
