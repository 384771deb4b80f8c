package procvm

import (
	"encoding/binary"
	"fmt"
)

// Builder assembles pipeline modules with a fluent API and validates them
// statically (pool references, operand encoding, stack balance) before
// producing an immutable Module.
//
//	m, err := procvm.NewBuilder("preprocess").
//		Input().
//		Normalize(means, stds).
//		Clamp(-4, 4).
//		Build()
type Builder struct {
	m   Module
	err error
}

// NewBuilder starts a module with the given name.
func NewBuilder(name string) *Builder {
	return &Builder{m: Module{Name: name}}
}

// RequireCaps declares host capabilities the module needs.
func (b *Builder) RequireCaps(c Capability) *Builder {
	b.m.Caps |= c
	return b
}

func (b *Builder) emit(op OpCode, operands ...int) *Builder {
	if b.err != nil {
		return b
	}
	if len(operands) != op.Operands() {
		b.err = fmt.Errorf("procvm: %v takes %d operands, got %d", op, op.Operands(), len(operands))
		return b
	}
	b.m.Code = append(b.m.Code, byte(op))
	for _, v := range operands {
		if v < 0 || v > 0xFFFF {
			b.err = fmt.Errorf("procvm: operand %d out of u16 range", v)
			return b
		}
		var tmp [2]byte
		binary.LittleEndian.PutUint16(tmp[:], uint16(v))
		b.m.Code = append(b.m.Code, tmp[:]...)
	}
	return b
}

func (b *Builder) scalarConst(v float32) int {
	for i, s := range b.m.Scalars {
		if s == v {
			return i
		}
	}
	b.m.Scalars = append(b.m.Scalars, v)
	return len(b.m.Scalars) - 1
}

func (b *Builder) vectorConst(v []float32) int {
	b.m.Vectors = append(b.m.Vectors, append([]float32(nil), v...))
	return len(b.m.Vectors) - 1
}

// Input pushes the module input.
func (b *Builder) Input() *Builder { return b.emit(OpInput) }

// PushScalar pushes a scalar constant.
func (b *Builder) PushScalar(v float32) *Builder {
	if b.err != nil {
		return b
	}
	return b.emit(OpPushScalar, b.scalarConst(v))
}

// PushVector pushes a vector constant.
func (b *Builder) PushVector(v []float32) *Builder {
	if b.err != nil {
		return b
	}
	return b.emit(OpPushVector, b.vectorConst(v))
}

// Add emits an addition.
func (b *Builder) Add() *Builder { return b.emit(OpAdd) }

// Sub emits a subtraction.
func (b *Builder) Sub() *Builder { return b.emit(OpSub) }

// Mul emits a multiplication.
func (b *Builder) Mul() *Builder { return b.emit(OpMul) }

// Abs takes element-wise absolute value.
func (b *Builder) Abs() *Builder { return b.emit(OpAbs) }

// Sqrt takes the element-wise square root.
func (b *Builder) Sqrt() *Builder { return b.emit(OpSqrt) }

// Normalize subtracts mean and divides by std element-wise.
func (b *Builder) Normalize(mean, std []float32) *Builder {
	if b.err != nil {
		return b
	}
	if len(mean) != len(std) {
		b.err = fmt.Errorf("procvm: Normalize mean/std lengths %d vs %d", len(mean), len(std))
		return b
	}
	return b.PushVector(mean).PushVector(std).emit(OpNormalize)
}

// Clamp bounds elements to [lo, hi].
func (b *Builder) Clamp(lo, hi float32) *Builder {
	return b.PushScalar(lo).PushScalar(hi).emit(OpClamp)
}

// Softmax applies softmax to the top vector.
func (b *Builder) Softmax() *Builder { return b.emit(OpSoftmax) }

// ArgMax reduces the top vector to the index of its maximum.
func (b *Builder) ArgMax() *Builder { return b.emit(OpArgMax) }

// Max reduces the top vector to its maximum.
func (b *Builder) Max() *Builder { return b.emit(OpMax) }

// Mean reduces the top vector to its mean.
func (b *Builder) Mean() *Builder { return b.emit(OpMean) }

// Sum reduces the top vector to its sum.
func (b *Builder) Sum() *Builder { return b.emit(OpSum) }

// Slice keeps elements [lo, hi) of the top vector.
func (b *Builder) Slice(lo, hi int) *Builder { return b.emit(OpSlice, lo, hi) }

// ReLU applies the rectifier element-wise.
func (b *Builder) ReLU() *Builder { return b.emit(OpReLU) }

// Sigmoid applies the logistic function element-wise.
func (b *Builder) Sigmoid() *Builder { return b.emit(OpSigmoid) }

// Tanh applies the hyperbolic tangent element-wise.
func (b *Builder) Tanh() *Builder { return b.emit(OpTanh) }

// MatVec multiplies the top vector (length in) by the [in, out] row-major
// weight matrix and adds the bias — the lowered form of a dense layer.
func (b *Builder) MatVec(w []float32, bias []float32) *Builder {
	if b.err != nil {
		return b
	}
	out := len(bias)
	if out == 0 || len(w)%out != 0 {
		b.err = fmt.Errorf("procvm: MatVec weights %d not a multiple of bias %d", len(w), out)
		return b
	}
	return b.emit(OpMatVec, b.vectorConst(w), b.vectorConst(bias), out)
}

// Conv2D convolves the top vector, interpreted as a flattened [inC, h, w]
// feature map, with the [outC, inC*kh*kw] row-major kernel matrix.
func (b *Builder) Conv2D(w, bias []float32, inC, h, wd, outC, kh, kw, stride, pad int) *Builder {
	if b.err != nil {
		return b
	}
	if len(w) != outC*inC*kh*kw || len(bias) != outC {
		b.err = fmt.Errorf("procvm: Conv2D weights %d / bias %d inconsistent with geometry", len(w), len(bias))
		return b
	}
	return b.emit(OpConv2D, b.vectorConst(w), b.vectorConst(bias), inC, h, wd, outC, kh, kw, stride, pad)
}

// MaxPool2D max-pools the top vector as a flattened [ch, h, w] map.
func (b *Builder) MaxPool2D(ch, h, w, k, stride int) *Builder {
	return b.emit(OpMaxPool2D, ch, h, w, k, stride)
}

// Build validates and returns the module.
func (b *Builder) Build() (*Module, error) {
	if b.err != nil {
		return nil, b.err
	}
	if err := Validate(&b.m); err != nil {
		return nil, err
	}
	m := b.m // copy
	m.Code = append([]byte(nil), b.m.Code...)
	return &m, nil
}

// Validate statically checks a module: it walks the code through decode,
// as Run does (opcodes defined, operands complete, pool references in
// range, geometry possible), and simulates the stack depth from the rows'
// pops and pushes, treating every value as one slot and halt as a no-op:
// the stack never underflows and ends non-empty.
func Validate(m *Module) error {
	var a operands
	depth := 0
	for pc := 0; pc < len(m.Code); {
		op, next, err := decode(m, pc, &a)
		if err != nil {
			return err
		}
		if depth -= opTable[op].pops; depth < 0 {
			return fmt.Errorf("%w at %v (offset %d)", ErrStackUnderflow, op, pc)
		}
		depth += opTable[op].pushes
		pc = next
	}
	if depth < 1 {
		return fmt.Errorf("%w: module leaves %d values on the stack, need ≥1", ErrBadModule, depth)
	}
	return nil
}
