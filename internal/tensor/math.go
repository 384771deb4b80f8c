package tensor

import (
	"fmt"
)

// AddInPlace adds b into a element-wise.
func (t *Tensor) AddInPlace(b *Tensor) {
	if !SameShape(t, b) {
		panic(fmt.Sprintf("tensor: AddInPlace shape mismatch %v vs %v", t.shape, b.shape))
	}
	for i := range t.Data {
		t.Data[i] += b.Data[i]
	}
}

// Scale multiplies every element by s in place and returns the receiver.
func (t *Tensor) Scale(s float32) *Tensor {
	for i := range t.Data {
		t.Data[i] *= s
	}
	return t
}

// Axpy computes t += alpha * x element-wise, each product rounded before it
// is added so arm64 cannot fuse the two (see doc.go).
func (t *Tensor) Axpy(alpha float32, x *Tensor) {
	if !SameShape(t, x) {
		panic(fmt.Sprintf("tensor: Axpy shape mismatch %v vs %v", t.shape, x.shape))
	}
	for i := range t.Data {
		t.Data[i] += float32(alpha * x.Data[i])
	}
}

// Map returns a new tensor with f applied to every element.
func (t *Tensor) Map(f func(float32) float32) *Tensor {
	out := New(t.shape...)
	for i, v := range t.Data {
		out.Data[i] = f(v)
	}
	return out
}

// Zero sets every element to 0.
func (t *Tensor) Zero() {
	for i := range t.Data {
		t.Data[i] = 0
	}
}

// ArgMaxRows returns, for a 2D tensor, the column index of the maximum of
// each row.
func (t *Tensor) ArgMaxRows() []int {
	t.must2D("ArgMaxRows")
	out := make([]int, t.shape[0])
	t.ArgMaxRowsInto(out)
	return out
}

// ArgMaxRowsInto writes the per-row argmax into out (length Rows) without
// allocating — the serving hot-loop form of ArgMaxRows.
func (t *Tensor) ArgMaxRowsInto(out []int) {
	t.must2D("ArgMaxRowsInto")
	r, c := t.shape[0], t.shape[1]
	if len(out) != r {
		panic(fmt.Sprintf("tensor: ArgMaxRowsInto got %d slots for %d rows", len(out), r))
	}
	for i := 0; i < r; i++ {
		row := t.Data[i*c : (i+1)*c]
		best, bi := row[0], 0
		for j, v := range row[1:] {
			if v > best {
				best, bi = v, j+1
			}
		}
		out[i] = bi
	}
}

// AddRowVector adds a length-Cols vector to every row of a 2D tensor in place.
func (t *Tensor) AddRowVector(v *Tensor) {
	t.must2D("AddRowVector")
	if v.Size() != t.shape[1] {
		panic(fmt.Sprintf("tensor: AddRowVector length %d does not match %d columns", v.Size(), t.shape[1]))
	}
	r, c := t.shape[0], t.shape[1]
	for i := 0; i < r; i++ {
		row := t.Data[i*c : (i+1)*c]
		for j := range row {
			row[j] += v.Data[j]
		}
	}
}

// CountNonZero returns the number of elements that are exactly non-zero.
func (t *Tensor) CountNonZero() int {
	n := 0
	for _, v := range t.Data {
		if v != 0 {
			n++
		}
	}
	return n
}
