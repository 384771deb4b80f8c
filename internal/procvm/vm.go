package procvm

import (
	"errors"
	"fmt"
	"math"

	"tinymlops/internal/tensor"
)

// Value is one stack slot: a scalar or a vector.
type Value struct {
	IsVec  bool
	Scalar float32
	Vec    []float32
}

func scalar(s float32) Value   { return Value{Scalar: s} }
func vector(v []float32) Value { return Value{IsVec: true, Vec: v} }

// Result is the outcome of executing a module.
type Result struct {
	Output  Value
	GasUsed uint64
}

// Runtime executes modules under a host policy: granted capabilities, a
// stack-depth bound and a gas ceiling. The zero value is unusable; use
// NewRuntime.
type Runtime struct {
	// Granted is the capability set the host extends to modules.
	Granted Capability
	// MaxStack bounds the value stack depth.
	MaxStack int
	// MaxGas caps execution cost when the module declares no tighter limit.
	MaxGas uint64
}

// NewRuntime returns a runtime granting the given capabilities with
// default resource bounds (stack 64, gas 1M).
func NewRuntime(granted Capability) *Runtime {
	return &Runtime{Granted: granted, MaxStack: 64, MaxGas: 1 << 20}
}

// Sentinel execution errors.
var (
	ErrCapabilityDenied = errors.New("procvm: module requires capabilities the host did not grant")
	ErrOutOfGas         = errors.New("procvm: out of gas")
	ErrStackOverflow    = errors.New("procvm: stack overflow")
	ErrStackUnderflow   = errors.New("procvm: stack underflow")
	ErrTypeMismatch     = errors.New("procvm: operand type mismatch")
	ErrBadModule        = errors.New("procvm: malformed module")
)

// Scratch is the memory runs work in, kept from one run to the next: the
// value stack and one slab that every vector a run pushes is carved from.
// It is the caller's, sized by the runs it serves: a run that outgrows the
// slab completes on the heap and leaves the slab at its total, up to what
// MaxStack vectors of the longest it carved hold. Gas does not bound a
// run's total (dup and drop in a loop), so past that bound its carves stay
// garbage for the collector, as Run's are. The zero value is ready; a
// Scratch serves one run at a time.
type Scratch struct{ frame }

// frame is the state of one run: its memory, the gas meter and the first
// error, which is sticky like wire.Reader's: once err is set, pops return
// zero values and pushes and charges do nothing. The bodies are methods
// behind a plain switch: a table of func values taking *frame would move
// a Run's frame to the heap.
type frame struct {
	stack      []Value
	slab       []float32
	used       int // floats the run has carved, past the slab included
	longest    int // the longest vector the run has carved
	maxStack   int
	gas, limit uint64
	err        error
}

// alloc carves n floats for its caller to fill; no op writes its operands.
func (f *frame) alloc(n int) []float32 {
	f.longest = max(f.longest, n)
	if f.used += n; f.used > len(f.slab) {
		return make([]float32, n)
	}
	return f.slab[f.used-n : f.used : f.used]
}

// copyOf carves a copy of a vector the module or the caller owns.
func (f *frame) copyOf(v []float32) []float32 { return append(f.alloc(len(v))[:0], v...) }

// charge meters n more gas and fails once the total passes the limit.
func (f *frame) charge(n uint64) {
	if f.err != nil {
		return
	}
	if f.gas += n; f.gas > f.limit {
		f.err = fmt.Errorf("%w: used %d of %d", ErrOutOfGas, f.gas, f.limit)
	}
}

func (f *frame) push(v Value) {
	switch {
	case f.err != nil:
	case len(f.stack) >= f.maxStack:
		f.err = ErrStackOverflow
	default:
		f.stack = append(f.stack, v)
	}
}

func (f *frame) pop() Value {
	if f.err != nil {
		return Value{}
	}
	st := f.stack
	if len(st) == 0 {
		f.err = ErrStackUnderflow
		return Value{}
	}
	f.stack = st[:len(st)-1]
	return st[len(st)-1]
}

func (f *frame) popVec() []float32 {
	v := f.pop()
	if f.err == nil && !v.IsVec {
		f.err = fmt.Errorf("%w: expected vector", ErrTypeMismatch)
	}
	return v.Vec
}

func (f *frame) popScalar() float32 {
	v := f.pop()
	if f.err == nil && v.IsVec {
		f.err = fmt.Errorf("%w: expected scalar", ErrTypeMismatch)
	}
	return v.Scalar
}

// Run executes the module on the input vector, in a fresh Scratch, and
// returns the top of the stack at halt. Each instruction is read and its
// operands checked by decode, metered from its row on the value on top of
// the stack before it runs, and executed by its arm in run. A failed Result
// carries the gas metered up to and including the failing instruction —
// except that an unknown opcode, which has no row to meter, reports none.
func (rt *Runtime) Run(m *Module, input []float32) (Result, error) {
	return rt.run(m, input, &Scratch{frame{stack: make([]Value, 0, 16)}}) // deeper than any shipped module
}

// RunScratch is Run in s: its output aliases s and stays valid until s's
// next run, and input must not alias s. Once s has served a run on an
// input of this length, the run allocates nothing unless it carves more
// than MaxStack of its longest vectors.
func (rt *Runtime) RunScratch(m *Module, input []float32, s *Scratch) (Result, error) {
	res, err := rt.run(m, input, s)
	if n := min(s.used, rt.MaxStack*s.longest); n > len(s.slab) {
		s.slab = make([]float32, n)
	}
	return res, err
}

func (rt *Runtime) run(m *Module, input []float32, s *Scratch) (Result, error) {
	if !rt.Granted.Has(m.Caps) {
		return Result{}, fmt.Errorf("%w: need %v, granted %v", ErrCapabilityDenied, m.Caps, rt.Granted)
	}
	f := &s.frame
	*f = frame{stack: f.stack[:0], slab: f.slab, maxStack: rt.MaxStack, limit: rt.MaxGas}
	if m.GasLimit > 0 && m.GasLimit < f.limit {
		f.limit = m.GasLimit
	}
	var a operands
	for pc := 0; pc < len(m.Code) && f.err == nil; {
		op, next, err := decode(m, pc, &a)
		if !op.Valid() {
			return Result{}, err
		}
		n := 1
		if op == OpInput {
			n = len(input)
		} else if st := f.stack; len(st) > 0 && st[len(st)-1].IsVec {
			n = len(st[len(st)-1].Vec)
		}
		// Whatever else is wrong with the instruction, its base cost is
		// metered first, and running out of gas there is what is reported.
		f.charge(uint64(opTable[op].gasPerElem*n) + 1)
		if f.err == nil {
			f.err = err
		}
		if f.err != nil {
			break
		}
		pc = next
		switch op {
		case OpHalt:
			pc = len(m.Code)
		case OpInput:
			f.push(vector(f.copyOf(input)))
		case OpPushScalar:
			f.push(scalar(m.Scalars[a[0]]))
		case OpPushVector:
			f.push(vector(f.copyOf(m.Vectors[a[0]])))
		case OpDup:
			f.dup()
		case OpDrop:
			f.pop()
		case OpSwap:
			y, x := f.pop(), f.pop()
			f.push(y)
			f.push(x)
		case OpAdd, OpSub, OpMul, OpDiv:
			f.arith(op)
		case OpNeg, OpAbs, OpSquare, OpSqrt, OpReLU, OpSigmoid, OpTanh:
			f.unary(op)
		case OpClamp:
			f.clamp()
		case OpNormalize:
			f.normalize()
		case OpThreshold:
			f.threshold()
		case OpSoftmax:
			f.softmax()
		case OpArgMax, OpMax, OpMean, OpSum:
			f.reduce(op)
		case OpMeanPool:
			f.meanPool(a[0])
		case OpSlice:
			f.slice(a[0], a[1])
		case OpMatVec:
			f.matVec(m.Vectors[a[0]], m.Vectors[a[1]], a[2])
		case OpConv2D:
			f.conv2D(m.Vectors[a[0]], m.Vectors[a[1]], a[5], conv2DWindow(a))
		case OpMaxPool2D:
			f.maxPool2D(maxPool2DWindow(a))
		}
	}
	st := f.stack
	if f.err == nil && len(st) == 0 {
		f.err = fmt.Errorf("%w: module left an empty stack", ErrBadModule)
	}
	if f.err != nil {
		return Result{GasUsed: f.gas}, f.err
	}
	return Result{Output: st[len(st)-1], GasUsed: f.gas}, nil
}

func (f *frame) mapValue(v Value, fn func(float32) float32) Value {
	if !v.IsVec {
		return scalar(fn(v.Scalar))
	}
	out := f.alloc(len(v.Vec))
	for i, x := range v.Vec {
		out[i] = fn(x)
	}
	return vector(out)
}

// unary pops a value and pushes op of each of its elements; a scalar
// passes through as a one-element slice on the Go stack.
func (f *frame) unary(op OpCode) {
	v := f.pop()
	if !v.IsVec {
		one := [1]float32{v.Scalar}
		unaryInto(op, one[:], one[:])
		f.push(scalar(one[0]))
		return
	}
	out := f.alloc(len(v.Vec))
	unaryInto(op, out, v.Vec)
	f.push(vector(out))
}

// unaryInto writes op of each element of x into dst. An activation runs
// the tensor kernel that nn's layer of its kind runs.
func unaryInto(op OpCode, dst, x []float32) {
	switch op {
	case OpReLU:
		tensor.ReLU(dst, x)
	case OpSigmoid:
		tensor.Sigmoid(dst, x)
	case OpTanh:
		tensor.Tanh(dst, x)
	case OpNeg:
		for i, v := range x {
			dst[i] = -v
		}
	case OpAbs:
		for i, v := range x {
			if v < 0 {
				v = -v
			}
			dst[i] = v
		}
	case OpSquare:
		for i, v := range x {
			dst[i] = v * v
		}
	default: // OpSqrt
		for i, v := range x {
			dst[i] = float32(math.Sqrt(float64(v)))
		}
	}
}

// dup pushes the top value again, a vector as a copy.
func (f *frame) dup() {
	v := f.pop()
	f.push(v)
	f.push(f.mapValue(v, func(x float32) float32 { return x }))
}

// arith pops b then a and pushes a∘b, broadcasting a scalar over a vector.
func (f *frame) arith(op OpCode) {
	b, a := f.pop(), f.pop()
	apply := func(x, y float32) float32 {
		switch op {
		case OpAdd:
			return x + y
		case OpSub:
			return x - y
		case OpMul:
			return x * y
		default:
			return x / y
		}
	}
	switch {
	case !b.IsVec:
		f.push(f.mapValue(a, func(x float32) float32 { return apply(x, b.Scalar) }))
	case !a.IsVec:
		f.push(f.mapValue(b, func(y float32) float32 { return apply(a.Scalar, y) }))
	case len(a.Vec) != len(b.Vec):
		f.err = fmt.Errorf("%w: vector lengths %d vs %d", ErrTypeMismatch, len(a.Vec), len(b.Vec))
	default:
		out := f.alloc(len(a.Vec))
		for i := range out {
			out[i] = apply(a.Vec[i], b.Vec[i])
		}
		f.push(vector(out))
	}
}

func (f *frame) clamp() {
	hi, lo := f.popScalar(), f.popScalar()
	f.push(f.mapValue(f.pop(), func(v float32) float32 {
		if v < lo {
			return lo
		}
		if v > hi {
			return hi
		}
		return v
	}))
}

func (f *frame) threshold() {
	t := f.popScalar()
	f.push(f.mapValue(f.pop(), func(v float32) float32 {
		if v > t {
			return 1
		}
		return 0
	}))
}

func (f *frame) normalize() {
	std, mean, x := f.popVec(), f.popVec(), f.popVec()
	if f.err == nil && (len(x) != len(mean) || len(x) != len(std)) {
		f.err = fmt.Errorf("%w: normalize lengths %d/%d/%d", ErrTypeMismatch, len(x), len(mean), len(std))
	}
	if f.err != nil {
		return
	}
	out := f.alloc(len(x))
	for i := range x {
		d := std[i]
		if d == 0 {
			d = 1
		}
		out[i] = (x[i] - mean[i]) / d
	}
	f.push(vector(out))
}

// softmax pops a vector and pushes its softmax, computed by the tensor
// kernel nn's Softmax layer runs, over one row.
func (f *frame) softmax() {
	x := f.popVec()
	out := f.alloc(len(x))
	tensor.SoftmaxRows(out, x, 1, len(x))
	f.push(vector(out))
}

// reduce pops a non-empty vector and pushes its argmax, max, mean or sum.
func (f *frame) reduce(op OpCode) {
	x := f.popVec()
	if f.err == nil && len(x) == 0 {
		f.err = fmt.Errorf("%w: %v of empty vector", ErrTypeMismatch, op)
	}
	if f.err != nil {
		return
	}
	best, bi := x[0], 0
	var sum float64
	for i, v := range x {
		if v > best {
			best, bi = v, i
		}
		sum += float64(v)
	}
	switch op {
	case OpArgMax:
		f.push(scalar(float32(bi)))
	case OpMax:
		f.push(scalar(best))
	case OpSum:
		f.push(scalar(float32(sum)))
	default: // OpMean
		f.push(scalar(float32(sum / float64(len(x)))))
	}
}

func (f *frame) meanPool(k int) {
	x := f.popVec()
	if f.err == nil && len(x)%k != 0 {
		f.err = fmt.Errorf("%w: meanpool window %d does not divide length %d", ErrTypeMismatch, k, len(x))
	}
	if f.err != nil {
		return
	}
	out := f.alloc(len(x) / k)
	for i := range out {
		var s float32
		for j := 0; j < k; j++ {
			s += x[i*k+j]
		}
		out[i] = s / float32(k)
	}
	f.push(vector(out))
}

func (f *frame) slice(lo, hi int) {
	x := f.popVec()
	if f.err == nil && hi > len(x) {
		f.err = fmt.Errorf("%w: slice [%d:%d] of length %d", ErrTypeMismatch, lo, hi, len(x))
	}
	if f.err != nil {
		return
	}
	f.push(vector(f.copyOf(x[lo:hi])))
}

// matVec pops x (length in) and pushes x·W + b for the [in, out] matrix w,
// charging in×out supplemental gas. The multiply is tensor.MatMulRowsInto
// on a 1×in row, the kernel behind nn.Dense's InferInto, so the result is
// bit-identical to it on the same row.
func (f *frame) matVec(w, b []float32, outN int) {
	x := f.popVec()
	in := len(x)
	if f.err == nil && (len(w) != in*outN || len(b) != outN) {
		f.err = fmt.Errorf("%w: matvec shapes: input %d, weights %d, bias %d, out %d",
			ErrTypeMismatch, in, len(w), len(b), outN)
	}
	if f.charge(uint64(in) * uint64(outN)); f.err != nil {
		return
	}
	out := f.alloc(outN)
	tensor.MatMulRowsInto(out, x, w, 1, in, outN)
	for j := range out {
		out[j] += b[j]
	}
	f.push(vector(out))
}

// conv2D pops a flattened [inC, h, w] map and pushes the [outC, oh, ow]
// convolution, charging one gas per MAC. tensor.Conv2DInto is the body
// nn.Conv2D runs, so compiled convolutions stay bit-identical to native. The
// row's check has held g to Window.Check, so oh and ow are at least 1.
func (f *frame) conv2D(weights, bias []float32, outC int, g tensor.Window) {
	oh, ow := g.Out()
	x := f.popVec()
	k := g.Taps()
	if f.err == nil && (len(x) != g.C*g.H*g.W || len(weights) != outC*k || len(bias) != outC) {
		f.err = fmt.Errorf("%w: conv2d shapes: input %d, weights %d, bias %d",
			ErrTypeMismatch, len(x), len(weights), len(bias))
	}
	if f.charge(uint64(outC) * uint64(oh) * uint64(ow) * uint64(k)); f.err != nil {
		return
	}
	y := f.alloc(outC * oh * ow)
	tensor.Conv2DInto(y, weights, f.alloc(k*oh*ow), x, bias, g)
	f.push(vector(y))
}

// maxPool2D pops a flattened [ch, h, w] map and pushes its k×k max-pooled
// map, charging one gas per comparison: tensor.MaxPool, as nn.MaxPool2D.
func (f *frame) maxPool2D(g tensor.Window) {
	oh, ow := g.Out()
	x := f.popVec()
	if f.err == nil && len(x) != g.C*g.H*g.W {
		f.err = fmt.Errorf("%w: maxpool2d input %d != %d×%d×%d", ErrTypeMismatch, len(x), g.C, g.H, g.W)
	}
	if f.charge(uint64(g.C) * uint64(oh) * uint64(ow) * uint64(g.KH) * uint64(g.KW)); f.err != nil {
		return
	}
	out := f.alloc(g.C * oh * ow)
	tensor.MaxPool(out, x, g, nil)
	f.push(vector(out))
}
