package tensor

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
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

// WriteTo serializes the tensor in a stable little-endian binary format:
// magic, rank, dims, raw float32 bits. It implements io.WriterTo.
func (t *Tensor) WriteTo(w io.Writer) (int64, error) {
	var n int64
	m, err := io.WriteString(w, magic)
	n += int64(m)
	if err != nil {
		return n, fmt.Errorf("tensor: write header: %w", err)
	}
	hdr := make([]byte, 4+4*len(t.shape))
	binary.LittleEndian.PutUint32(hdr, uint32(len(t.shape)))
	for i, d := range t.shape {
		binary.LittleEndian.PutUint32(hdr[4+4*i:], uint32(d))
	}
	m, err = w.Write(hdr)
	n += int64(m)
	if err != nil {
		return n, fmt.Errorf("tensor: write shape: %w", err)
	}
	buf := make([]byte, 4*len(t.Data))
	for i, v := range t.Data {
		binary.LittleEndian.PutUint32(buf[4*i:], math.Float32bits(v))
	}
	m, err = w.Write(buf)
	n += int64(m)
	if err != nil {
		return n, fmt.Errorf("tensor: write data: %w", err)
	}
	return n, nil
}

// maxElements caps the element count ReadFrom accepts.
const maxElements = 1 << 28

// ReadFrom deserializes a tensor written by WriteTo, replacing t's contents.
// Every dimension must be positive and their product at most maxElements.
func (t *Tensor) ReadFrom(r io.Reader) (int64, error) {
	var n int64
	got := make([]byte, len(magic))
	m, err := io.ReadFull(r, got)
	n += int64(m)
	if err != nil {
		return n, fmt.Errorf("tensor: read header: %w", err)
	}
	if string(got) != magic {
		return n, errors.New("tensor: bad magic in stream")
	}
	var rank [4]byte
	m, err = io.ReadFull(r, rank[:])
	n += int64(m)
	if err != nil {
		return n, fmt.Errorf("tensor: read rank: %w", err)
	}
	k := int(binary.LittleEndian.Uint32(rank[:]))
	if k <= 0 || k > 8 {
		return n, fmt.Errorf("tensor: implausible rank %d", k)
	}
	dims := make([]byte, 4*k)
	m, err = io.ReadFull(r, dims)
	n += int64(m)
	if err != nil {
		return n, fmt.Errorf("tensor: read dims: %w", err)
	}
	shape := make([]int, k)
	total := 1
	for i := range shape {
		d := binary.LittleEndian.Uint32(dims[4*i:])
		// Checked per dimension, before multiplying: a product of large
		// dimensions would wrap around to a small count.
		if d == 0 || uint64(d) > maxElements/uint64(total) {
			return n, fmt.Errorf("tensor: implausible dimensions (dim %d is %d, %d elements before it)", i, d, total)
		}
		shape[i] = int(d)
		total *= shape[i]
	}
	// A reader that knows how much it still holds (bytes.Reader,
	// bytes.Buffer) lets a count the stream cannot back be refused before
	// up to a gigabyte is allocated for it.
	if l, ok := r.(interface{ Len() int }); ok && 4*total > l.Len() {
		return n, fmt.Errorf("tensor: %d elements declared, %d bytes left: %w", total, l.Len(), io.ErrUnexpectedEOF)
	}
	buf := make([]byte, 4*total)
	m, err = io.ReadFull(r, buf)
	n += int64(m)
	if err != nil {
		return n, fmt.Errorf("tensor: read data: %w", err)
	}
	t.shape = shape
	t.Data = make([]float32, total)
	for i := range t.Data {
		t.Data[i] = math.Float32frombits(binary.LittleEndian.Uint32(buf[4*i:]))
	}
	return n, nil
}
