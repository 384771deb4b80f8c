package tensor

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"tinymlops/internal/wire"
)

// Tensor is a dense, row-major float32 tensor.
//
// Data holds len == product(shape) values. Callers may read and write Data
// directly for performance, but must not resize it; use Reshape to change
// the logical shape.
type Tensor struct {
	shape []int
	Data  []float32
}

// New returns a zero-filled tensor with the given shape.
// It panics if any dimension is negative or the shape is empty.
func New(shape ...int) *Tensor {
	n := checkShape(shape)
	return &Tensor{shape: append([]int(nil), shape...), Data: make([]float32, n)}
}

// FromSlice wraps data in a tensor of the given shape. The slice is used
// directly (not copied); its length must equal the product of the shape.
func FromSlice(data []float32, shape ...int) *Tensor {
	n := checkShape(shape)
	if len(data) != n {
		panic(fmt.Sprintf("tensor: FromSlice data length %d does not match shape %v (need %d)", len(data), shape, n))
	}
	return &Tensor{shape: append([]int(nil), shape...), Data: data}
}

// Full returns a tensor with every element set to v.
func Full(v float32, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.Data {
		t.Data[i] = v
	}
	return t
}

// Ones returns a tensor of ones.
func Ones(shape ...int) *Tensor { return Full(1, shape...) }

func checkShape(shape []int) int {
	if len(shape) == 0 {
		panic("tensor: empty shape")
	}
	n := 1
	for _, d := range shape {
		if d < 0 {
			panic(fmt.Sprintf("tensor: negative dimension in shape %v", shape))
		}
		n *= d
	}
	return n
}

// Shape returns the tensor's dimensions. The returned slice is owned by the
// tensor and must not be modified.
func (t *Tensor) Shape() []int { return t.shape }

// Rank returns the number of dimensions.
func (t *Tensor) Rank() int { return len(t.shape) }

// Size returns the total number of elements.
func (t *Tensor) Size() int { return len(t.Data) }

// Dim returns the size of dimension i.
func (t *Tensor) Dim(i int) int { return t.shape[i] }

func (t *Tensor) must2D(op string) {
	if len(t.shape) != 2 {
		panic(fmt.Sprintf("tensor: %s requires a 2D tensor, got shape %v", op, t.shape))
	}
}

// At2 is a fast accessor for 2D tensors.
func (t *Tensor) At2(i, j int) float32 { return t.Data[i*t.shape[1]+j] }

// Set2 is a fast mutator for 2D tensors.
func (t *Tensor) Set2(i, j int, v float32) { t.Data[i*t.shape[1]+j] = v }

// Clone returns a deep copy of the tensor.
func (t *Tensor) Clone() *Tensor {
	c := New(t.shape...)
	copy(c.Data, t.Data)
	return c
}

// Reshape returns a view of the tensor with a new shape. The underlying data
// is shared. The new shape must describe the same number of elements; one
// dimension may be -1, in which case it is inferred.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	infer := -1
	n := 1
	for i, d := range shape {
		switch {
		case d == -1:
			if infer >= 0 {
				panic("tensor: Reshape allows at most one -1 dimension")
			}
			infer = i
		case d < 0:
			panic(fmt.Sprintf("tensor: invalid Reshape dimension %d", d))
		default:
			n *= d
		}
	}
	out := append([]int(nil), shape...)
	if infer >= 0 {
		if n == 0 || len(t.Data)%n != 0 {
			panic(fmt.Sprintf("tensor: cannot infer dimension for Reshape(%v) of %d elements", shape, len(t.Data)))
		}
		out[infer] = len(t.Data) / n
		n *= out[infer]
	}
	if n != len(t.Data) {
		panic(fmt.Sprintf("tensor: Reshape(%v) incompatible with %d elements", shape, len(t.Data)))
	}
	return &Tensor{shape: out, Data: t.Data}
}

// RowSlice returns rows [lo,hi) of a 2D tensor as a shared view.
func (t *Tensor) RowSlice(lo, hi int) *Tensor {
	t.must2D("RowSlice")
	if lo < 0 || hi > t.shape[0] || lo > hi {
		panic(fmt.Sprintf("tensor: RowSlice(%d,%d) out of range for %d rows", lo, hi, t.shape[0]))
	}
	c := t.shape[1]
	return &Tensor{shape: []int{hi - lo, c}, Data: t.Data[lo*c : hi*c]}
}

// CopyFrom copies src's data into t. Shapes must contain the same number of
// elements.
func (t *Tensor) CopyFrom(src *Tensor) {
	if len(t.Data) != len(src.Data) {
		panic(fmt.Sprintf("tensor: CopyFrom size mismatch %d vs %d", len(t.Data), len(src.Data)))
	}
	copy(t.Data, src.Data)
}

// SameShape reports whether a and b have identical shapes.
func SameShape(a, b *Tensor) bool {
	if len(a.shape) != len(b.shape) {
		return false
	}
	for i := range a.shape {
		if a.shape[i] != b.shape[i] {
			return false
		}
	}
	return true
}

// ApproxEqual reports whether a and b have the same shape and all elements
// within tol of each other.
func ApproxEqual(a, b *Tensor, tol float32) bool {
	if !SameShape(a, b) {
		return false
	}
	for i := range a.Data {
		d := a.Data[i] - b.Data[i]
		if d < 0 {
			d = -d
		}
		if d > tol {
			return false
		}
	}
	return true
}

// String renders a compact description (shape plus up to 8 leading values).
func (t *Tensor) String() string {
	n := len(t.Data)
	if n > 8 {
		n = 8
	}
	return fmt.Sprintf("Tensor%v%v…", t.shape, t.Data[:n])
}

const magic = "TMLT1\n"

// maxElements caps the element count Decode accepts.
const maxElements = 1 << 28

// AppendBinary appends the tensor's stable TMLT1 encoding to b and returns
// the extended slice: magic, rank, dims, then the raw float32 bits, all
// little-endian.
func (t *Tensor) AppendBinary(b []byte) []byte {
	if n := len(magic) + 4*(1+len(t.shape)+len(t.Data)); cap(b)-len(b) < n {
		b = append(make([]byte, 0, len(b)+n), b...)
	}
	b = append(b, magic...)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(t.shape)))
	for _, d := range t.shape {
		b = binary.LittleEndian.AppendUint32(b, uint32(d))
	}
	for _, v := range t.Data {
		b = binary.LittleEndian.AppendUint32(b, math.Float32bits(v))
	}
	return b
}

// WriteTo writes the tensor's TMLT1 encoding (see AppendBinary). It
// implements io.WriterTo.
func (t *Tensor) WriteTo(w io.Writer) (int64, error) {
	n, err := w.Write(t.AppendBinary(nil))
	if err != nil {
		return int64(n), fmt.Errorf("tensor: write: %w", err)
	}
	return int64(n), nil
}

// Decode reads one TMLT1 tensor at r's cursor into t, reusing t's shape
// and data storage when they are large enough. The rank must be 1 to 8,
// every dimension positive and their product at most maxElements, and the
// payload must be in the input: nothing is allocated for a count the input
// cannot back. A tensor that does not decode leaves t as it was.
func (t *Tensor) Decode(r *wire.Reader) error {
	r.Magic(magic)
	var dims [8]int
	k := r.Count(len(dims), 4)
	if r.Err() == nil && k == 0 {
		return fmt.Errorf("tensor: implausible rank 0")
	}
	total := 1
	for i := range dims[:k] {
		d := r.U32()
		// Checked per dimension, before multiplying: a product of large
		// dimensions would wrap around to a small count.
		if d == 0 || uint64(d) > maxElements/uint64(total) {
			return fmt.Errorf("tensor: implausible dimensions (dim %d is %d, %d elements before it)", i, d, total)
		}
		dims[i] = int(d)
		total *= dims[i]
	}
	raw := r.Bytes(4 * total)
	if err := r.Err(); err != nil {
		return fmt.Errorf("tensor: %w", err)
	}
	t.shape = append(t.shape[:0], dims[:k]...)
	if cap(t.Data) < total {
		t.Data = make([]float32, total)
	}
	t.Data = t.Data[:total]
	for i := range t.Data {
		t.Data[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
	}
	return nil
}

// ReadFrom reads r to EOF and decodes what it read as exactly one TMLT1
// tensor, replacing t's contents (see Decode). It implements io.ReaderFrom.
func (t *Tensor) ReadFrom(r io.Reader) (int64, error) {
	data, err := io.ReadAll(r)
	n := int64(len(data))
	if err != nil {
		return n, fmt.Errorf("tensor: read: %w", err)
	}
	c := wire.NewReader(data)
	if err := t.Decode(c); err != nil {
		return n, err
	}
	if err := c.Done(); err != nil {
		return n, fmt.Errorf("tensor: %w", err)
	}
	return n, nil
}
