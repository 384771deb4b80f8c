package procvm

import (
	"encoding/binary"
	"fmt"

	"tinymlops/internal/tensor"
)

// OpCode is one instruction of the pipeline ISA. Instructions operate on a
// stack of values; a value is either a scalar or a float32 vector. Binary
// arithmetic broadcasts scalars over vectors. The ISA is deliberately
// control-flow-free (no jumps): every module is a straight-line pipeline,
// which makes gas exactly predictable and termination trivial.
type OpCode byte

// The instruction set.
const (
	OpHalt OpCode = iota
	// OpInput pushes the module input vector.
	OpInput
	// OpPushScalar <u16 idx> pushes Scalars[idx].
	OpPushScalar
	// OpPushVector <u16 idx> pushes a copy of Vectors[idx].
	OpPushVector
	// Stack shuffling.
	OpDup
	OpDrop
	OpSwap
	// Binary arithmetic: pops b then a, pushes a∘b (scalar broadcast).
	OpAdd
	OpSub
	OpMul
	OpDiv
	// Unary.
	OpNeg
	OpAbs
	OpSquare
	OpSqrt
	// OpClamp pops hi, lo, x and pushes x clamped element-wise.
	OpClamp
	// OpNormalize pops std (vector), mean (vector), x and pushes (x-mean)/std.
	OpNormalize
	// OpThreshold pops t (scalar), x and pushes the element-wise indicator x > t.
	OpThreshold
	// OpSoftmax pops a vector, pushes its softmax.
	OpSoftmax
	// OpArgMax pops a vector, pushes the index of its maximum as a scalar.
	OpArgMax
	// OpMax / OpMean / OpSum pop a vector and push the reduction as a scalar.
	OpMax
	OpMean
	OpSum
	// OpMeanPool <u16 k> pops a vector and pushes its length/k window means
	// (k must divide the length).
	OpMeanPool
	// OpSlice <u16 lo> <u16 hi> pops a vector and pushes v[lo:hi].
	OpSlice
	// Neural-network ops (the compat→procvm lowering backend). These run
	// the exact float32 kernels the native nn layers use, so a compiled
	// module is bit-identical to the network it was lowered from.
	//
	// OpReLU / OpSigmoid / OpTanh apply the activation element-wise.
	OpReLU
	OpSigmoid
	OpTanh
	// OpMatVec <u16 w> <u16 b> <u16 out> pops x (length `in`), reads the
	// weight matrix [in, out] from Vectors[w] and the bias from
	// Vectors[b], and pushes x·W + b. Charges in×out supplemental gas.
	OpMatVec
	// OpConv2D <u16 w> <u16 b> <u16 inC> <u16 h> <u16 wd> <u16 outC>
	// <u16 kh> <u16 kw> <u16 stride> <u16 pad> pops a flattened
	// [inC, h, wd] feature map and pushes the flattened [outC, oh, ow]
	// convolution output. Charges outC·oh·ow·inC·kh·kw supplemental gas.
	OpConv2D
	// OpMaxPool2D <u16 ch> <u16 h> <u16 w> <u16 k> <u16 stride> pops a
	// flattened [ch, h, w] map and pushes the k×k max-pooled map.
	OpMaxPool2D
	opCount // sentinel
)

// operands holds one instruction's decoded u16 operands; conv2d, the
// widest, fills it.
type operands [10]int

// opInfo is one row of the ISA, the only description of an instruction:
// what is true of it whatever values it meets. Validate and Run both read
// code through decode, which holds every operand to its row; Validate adds
// the depth simulation from pops and pushes, Run what needs live values
// (operand types, lengths against the popped value, supplemental gas,
// MaxStack).
type opInfo struct {
	name string
	// operands has one byte per u16 operand following the opcode, saying
	// what decode holds it to: 's' an index into Scalars, 'v' an index into
	// Vectors (ErrBadModule otherwise), '+' a positive count or dimension
	// (ErrTypeMismatch otherwise), '.' anything.
	operands     string
	pops, pushes int // every value is one slot
	// gasPerElem (0, 1, 2 or 4) meters the instruction at gasPerElem·n + 1,
	// n being the length of the value on top of the stack before it runs:
	// the input's for OpInput, 1 for a scalar or an empty stack. So pushv
	// of any vector onto an empty stack costs 2, and so does clamp, whose
	// top of stack is its hi bound. Kept, because compiled artifacts pin
	// GasLimit to their measured cost and so carry it in their digests.
	gasPerElem int
	// fits, where set, is the test that relates one operand to another. It
	// takes the operands by value so that Run's, handed to this func value,
	// stay on Run's stack.
	fits func(a operands) error
}

var opTable = [opCount]opInfo{
	OpHalt:       {"halt", "", 0, 0, 0, nil},
	OpInput:      {"input", "", 0, 1, 1, nil},
	OpPushScalar: {"pushs", "s", 0, 1, 0, nil},
	OpPushVector: {"pushv", "v", 0, 1, 1, nil},
	OpDup:        {"dup", "", 1, 2, 0, nil},
	OpDrop:       {"drop", "", 1, 0, 0, nil},
	OpSwap:       {"swap", "", 2, 2, 0, nil},
	OpAdd:        {"add", "", 2, 1, 1, nil},
	OpSub:        {"sub", "", 2, 1, 1, nil},
	OpMul:        {"mul", "", 2, 1, 1, nil},
	OpDiv:        {"div", "", 2, 1, 1, nil},
	OpNeg:        {"neg", "", 1, 1, 1, nil},
	OpAbs:        {"abs", "", 1, 1, 1, nil},
	OpSquare:     {"square", "", 1, 1, 1, nil},
	OpSqrt:       {"sqrt", "", 1, 1, 2, nil},
	OpClamp:      {"clamp", "", 3, 1, 1, nil},
	OpNormalize:  {"normalize", "", 3, 1, 2, nil},
	OpThreshold:  {"threshold", "", 2, 1, 1, nil},
	OpSoftmax:    {"softmax", "", 1, 1, 4, nil},
	OpArgMax:     {"argmax", "", 1, 1, 1, nil},
	OpMax:        {"max", "", 1, 1, 1, nil},
	OpMean:       {"mean", "", 1, 1, 1, nil},
	OpSum:        {"sum", "", 1, 1, 1, nil},
	OpMeanPool:   {"meanpool", "+", 1, 1, 1, nil},
	OpSlice:      {"slice", "..", 1, 1, 1, sliceFits},
	OpReLU:       {"relu", "", 1, 1, 1, nil},
	OpSigmoid:    {"sigmoid", "", 1, 1, 2, nil},
	OpTanh:       {"tanh", "", 1, 1, 2, nil},
	// The heavy nn ops charge, on top of the row's base cost, one gas per
	// MAC (or comparison) once the input's length is known.
	OpMatVec:    {"matvec", "vv+", 1, 1, 1, nil},
	OpConv2D:    {"conv2d", "vv+++++++.", 1, 1, 1, conv2DFits},
	OpMaxPool2D: {"maxpool2d", "+++++", 1, 1, 1, maxPool2DFits},
}

func sliceFits(a operands) error {
	if a[0] > a[1] {
		return fmt.Errorf("%w: slice bounds [%d:%d] inverted", ErrTypeMismatch, a[0], a[1])
	}
	return nil
}

// conv2DWindow and maxPool2DWindow read an instruction's operands as the
// tensor.Window it slides, for the row's fits test and for the arm.
func conv2DWindow(a operands) tensor.Window {
	return tensor.Window{C: a[2], H: a[3], W: a[4], KH: a[6], KW: a[7], Stride: a[8], Pad: a[9]}
}

func maxPool2DWindow(a operands) tensor.Window {
	return tensor.Window{C: a[0], H: a[1], W: a[2], KH: a[3], KW: a[3], Stride: a[4]}
}

// windowFits holds a window to tensor.Window.Check: one larger than its
// padded map would count as one position and read past the map's end.
func windowFits(name string, g tensor.Window) error {
	if err := g.Check(); err != nil {
		return fmt.Errorf("%w: %s: %v", ErrTypeMismatch, name, err)
	}
	return nil
}

func conv2DFits(a operands) error { return windowFits("conv2d", conv2DWindow(a)) }

func maxPool2DFits(a operands) error { return windowFits("maxpool2d", maxPool2DWindow(a)) }

// String implements fmt.Stringer.
func (o OpCode) String() string {
	if o.Valid() {
		return opTable[o].name
	}
	return fmt.Sprintf("op(%d)", byte(o))
}

// Valid reports whether the opcode is defined.
func (o OpCode) Valid() bool { return o < opCount }

// Operands returns the number of u16 operands the opcode carries.
func (o OpCode) Operands() int {
	if !o.Valid() {
		return 0
	}
	return len(opTable[o].operands)
}

// decode reads the instruction at m.Code[pc] — the opcode, then the u16
// operands its row declares, into a — holds each operand to what the row
// says it is, and returns the offset of the next instruction. Validate and
// Run both walk code through it, so it is the one place an unknown opcode,
// a truncated operand or an operand no input could make valid is rejected:
// Validate refuses the module, Run fails the query of a module that was
// never validated. op is returned with every error, and is not Valid only
// with the first.
func decode(m *Module, pc int, a *operands) (op OpCode, next int, err error) {
	op = OpCode(m.Code[pc])
	if !op.Valid() {
		return op, pc, fmt.Errorf("%w: invalid opcode %d at offset %d", ErrBadModule, byte(op), pc)
	}
	row := &opTable[op]
	next = pc + 1 + 2*len(row.operands)
	if next > len(m.Code) {
		return op, pc, fmt.Errorf("%w: truncated operand for %s at offset %d", ErrBadModule, row.name, pc)
	}
	for i, kind := range []byte(row.operands) {
		v := int(binary.LittleEndian.Uint16(m.Code[pc+1+2*i:]))
		switch {
		case kind == 's' && v >= len(m.Scalars), kind == 'v' && v >= len(m.Vectors):
			return op, pc, fmt.Errorf("%w: %s operand %d: index %d out of pool", ErrBadModule, row.name, i, v)
		case kind == '+' && v == 0:
			return op, pc, fmt.Errorf("%w: %s operand %d must be positive", ErrTypeMismatch, row.name, i)
		}
		a[i] = v
	}
	if row.fits != nil {
		err = row.fits(*a)
	}
	return op, next, err
}
