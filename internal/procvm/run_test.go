package procvm_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"tinymlops/internal/compat"
	"tinymlops/internal/nn"
	"tinymlops/internal/procvm"
	"tinymlops/internal/tensor"
)

// ramp is the fixed input every golden row runs on: negative, zero and
// positive values, none of them special.
func ramp(n int) []float32 {
	x := make([]float32, n)
	for i := range x {
		x[i] = float32(i%7)*0.375 - 1
	}
	return x
}

// ins encodes one instruction: the opcode byte and its u16 operands.
func ins(op procvm.OpCode, operands ...int) []byte {
	b := []byte{byte(op)}
	for _, v := range operands {
		b = binary.LittleEndian.AppendUint16(b, uint16(v))
	}
	return b
}

// asm joins instructions into a hand-built program over handPool, the way
// a module that never went through Builder.Build arrives.
func asm(parts ...[]byte) *procvm.Module {
	return &procvm.Module{Name: "hand", Scalars: handScalars, Vectors: handVectors, Code: bytes.Join(parts, nil)}
}

var (
	handScalars = []float32{1.5}
	handVectors = [][]float32{
		{1, -2, 0.5, 4}, // 0: a 2→2 matvec matrix, or one 1×2×2 conv kernel
		{0.5, -0.5},     // 1: a bias of two
		{10},            // 2: a bias of one
		{1, 2, 3},       // 3
	}
)

type runCase struct {
	name  string
	mod   *procvm.Module
	input []float32
	rt    procvm.Runtime // zero fields take NewRuntime's defaults
}

func (c runCase) run() (procvm.Result, error) {
	rt := procvm.NewRuntime(c.rt.Granted)
	if c.rt.MaxStack != 0 {
		rt.MaxStack = c.rt.MaxStack
	}
	if c.rt.MaxGas != 0 {
		rt.MaxGas = c.rt.MaxGas
	}
	return rt.Run(c.mod, c.input)
}

func built(t testing.TB, b *procvm.Builder) *procvm.Module {
	t.Helper()
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func compiled(t testing.TB, name string, net *nn.Network) runCase {
	t.Helper()
	m, err := compat.CompileProcVM(net, compat.CompileOptions{Name: name})
	if err != nil {
		t.Fatal(err)
	}
	n := 1
	for _, d := range net.InputShape {
		n *= d
	}
	return runCase{name: "compiled/" + name, mod: m, input: ramp(n), rt: procvm.Runtime{Granted: m.Caps}}
}

func mlp(rng *tensor.RNG, widths ...int) *nn.Network {
	var layers []nn.Layer
	for i := 0; i+1 < len(widths); i++ {
		if i > 0 {
			layers = append(layers, nn.NewReLU())
		}
		layers = append(layers, nn.NewDense(widths[i], widths[i+1], rng))
	}
	return nn.NewNetwork([]int{widths[0]}, layers...)
}

// successCorpus runs every opcode at least once (TestRunGolden checks that
// it does): the four operand shapes of the arithmetic ops, each unary op
// and reduction on a vector and on a scalar, the stack shuffles, halt, the
// golden PVM1 module, the benchmark's pre and post modules, and compiled
// networks of the three shapes the benchmark and compat's tests lower.
func successCorpus(t testing.TB) []runCase {
	nb := func() *procvm.Builder { return procvm.NewBuilder("g") }
	var cs []runCase
	add := func(name string, b *procvm.Builder, n int) {
		cs = append(cs, runCase{name: name, mod: built(t, b), input: ramp(n)})
	}
	for _, arith := range []struct {
		name string
		op   func(*procvm.Builder) *procvm.Builder
	}{{"add", (*procvm.Builder).Add}, {"sub", (*procvm.Builder).Sub}, {"mul", (*procvm.Builder).Mul}, {"div", func(b *procvm.Builder) *procvm.Builder { return b.Emit(procvm.OpDiv) }}} {
		add(arith.name+"/scalar-scalar", arith.op(nb().PushScalar(7).PushScalar(-3)), 0)
		add(arith.name+"/vector-scalar", arith.op(nb().Input().PushScalar(-3)), 5)
		add(arith.name+"/scalar-vector", arith.op(nb().PushScalar(7).Input()), 5)
		add(arith.name+"/vector-vector", arith.op(nb().Input().PushVector([]float32{3, -1, 0.5, 8, -0.25})), 5)
	}
	add("unary/vector", nb().Input().Emit(procvm.OpNeg).Abs().Emit(procvm.OpSquare).Sqrt(), 9)
	add("unary/scalar", nb().PushScalar(-2.25).Emit(procvm.OpNeg).Abs().Emit(procvm.OpSquare).Sqrt().ReLU().Sigmoid().Tanh(), 0)
	add("relu", nb().Input().ReLU(), 9)
	add("sigmoid", nb().Input().Sigmoid(), 9)
	add("tanh", nb().Input().Tanh(), 9)
	add("clamp-threshold/vector", nb().Input().Clamp(-0.5, 0.5).Emit(procvm.OpDup).PushScalar(0).Emit(procvm.OpThreshold).Add(), 9)
	add("clamp-threshold/scalar", nb().PushScalar(3).Clamp(-1, 1).PushScalar(0.5).Emit(procvm.OpThreshold), 0)
	add("softmax", nb().Input().Softmax(), 9)
	add("softmax/empty", nb().Input().Softmax(), 0)
	add("argmax", nb().Input().ArgMax(), 9)
	add("max", nb().Input().Max(), 9)
	add("mean", nb().Input().Mean(), 9)
	add("sum", nb().Input().Sum(), 9)
	add("shuffle", nb().Input().Emit(procvm.OpDup).Sum().Emit(procvm.OpSwap).Mean().Add().Emit(procvm.OpDup).Emit(procvm.OpDrop), 6)
	deep := nb() // past the 16 slots a new Scratch starts its stack with
	for i := 0; i < 20; i++ {
		deep.PushScalar(float32(i) / 4)
	}
	for i := 0; i < 19; i++ {
		deep.Sub()
	}
	add("deep-stack", deep, 0)
	add("meanpool-slice", nb().Input().Emit(procvm.OpMeanPool, 2).Slice(1, 3), 8)
	add("normalize/zero-std", nb().Input().Normalize([]float32{1, 2, 3}, []float32{2, 0, -4}), 3)
	add("conv-strided", nb().Input().Conv2D(ramp(2*1*3*3), []float32{0.5, -1}, 1, 5, 5, 2, 3, 3, 2, 1).MaxPool2D(2, 3, 3, 2, 1), 25)
	add("maxpool-overlap", nb().Input().MaxPool2D(2, 5, 5, 3, 2), 50)

	// Run stops at halt: the unknown opcode behind it is never decoded.
	cs = append(cs, runCase{name: "halt", mod: asm(ins(procvm.OpInput), ins(procvm.OpHalt), []byte{250}), input: ramp(3)})

	blob, err := os.ReadFile("testdata/golden.pvm")
	if err != nil {
		t.Fatal(err)
	}
	golden, err := procvm.DecodeModule(blob)
	if err != nil {
		t.Fatal(err)
	}
	cs = append(cs, runCase{name: "golden.pvm", mod: golden, input: ramp(2), rt: procvm.Runtime{Granted: golden.Caps}})

	add("bench/normalize", procvm.NewBuilder("normalize").Input().Normalize([]float32{0.5, -1, 2, 0}, []float32{1.5, 2, 0.25, 3}), 4)
	add("bench/label", procvm.NewBuilder("label").Input().ArgMax(), 3)

	rng := tensor.NewRNG(22)
	cs = append(cs,
		compiled(t, "kws-mlp", mlp(rng, 64, 256, 128, 10)),
		compiled(t, "sensor-mlp", mlp(rng, 4, 16, 3)),
		compiled(t, "conv", nn.NewNetwork([]int{2, 8, 8},
			nn.NewConv2D(2, 4, 3, 3, 1, 1, rng), nn.NewReLU(), nn.NewMaxPool2D(2, 2), nn.NewFlatten(),
			nn.NewDense(64, 5, rng), nn.NewSigmoid())))
	return cs
}

// goldenRows reads a "name rest-of-line" file.
func goldenRows(t *testing.T, path string) map[string]string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rows := make(map[string]string)
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		name, rest, _ := strings.Cut(line, " ")
		rows[name] = rest
	}
	return rows
}

// TestRunGolden pins the output bits and the gas of every row of
// successCorpus against testdata/run.golden, recorded at commit 2ff9725 —
// the closure interpreter, before instructions became table rows. Compiled
// artifacts carry GasLimit = GasUsed, so gas is part of their digest and
// of every registry ID; a row that moves here moves those.
func TestRunGolden(t *testing.T) {
	want := goldenRows(t, "testdata/run.golden")
	corpus := successCorpus(t)
	if len(want) != len(corpus) {
		t.Fatalf("testdata/run.golden has %d rows, the corpus %d", len(want), len(corpus))
	}
	seen := make(map[procvm.OpCode]bool)
	for _, c := range corpus {
		for pc := 0; pc < len(c.mod.Code); {
			op := procvm.OpCode(c.mod.Code[pc])
			seen[op] = true
			if op == procvm.OpHalt {
				break
			}
			pc += 1 + 2*op.Operands()
		}
		res, err := c.run()
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		var sb strings.Builder
		fmt.Fprintf(&sb, "gas=%d out=", res.GasUsed)
		if res.Output.IsVec {
			sb.WriteString("v")
			for _, v := range res.Output.Vec {
				fmt.Fprintf(&sb, ":%08x", math.Float32bits(v))
			}
		} else {
			fmt.Fprintf(&sb, "s:%08x", math.Float32bits(res.Output.Scalar))
		}
		if got := sb.String(); got != want[c.name] {
			t.Errorf("%s:\n got %s\nwant %s", c.name, got, want[c.name])
		}
	}
	for op := procvm.OpCode(0); op.Valid(); op++ {
		if !seen[op] {
			t.Errorf("no golden row executes %v", op)
		}
	}
}

// errorCorpus is every way Run fails: underflow and type mismatch at each
// operand position of each instruction, overflow on each pushing
// instruction, truncated operands, unknown opcodes, pool indices,
// mis-sized inputs and geometry, gas exhausted on the base charge and on
// each supplemental one, a denied capability and an empty final stack.
// One fault per program: which of two faults at one instruction is
// reported is not pinned.
func errorCorpus() []runCase {
	var cs []runCase
	add := func(name string, input []float32, parts ...[]byte) {
		cs = append(cs, runCase{name: name, mod: asm(parts...), input: input})
	}
	in2, in9 := ramp(2), ramp(9)
	input, pushs, pushv3 := ins(procvm.OpInput), ins(procvm.OpPushScalar, 0), ins(procvm.OpPushVector, 3)
	matvec := ins(procvm.OpMatVec, 0, 1, 2)
	conv := ins(procvm.OpConv2D, 0, 2, 1, 3, 3, 1, 2, 2, 1, 0)
	pool := ins(procvm.OpMaxPool2D, 1, 3, 3, 2, 1)

	// Every popping instruction on an empty stack, and every instruction
	// that needs a vector on a scalar.
	popping := [][]byte{ins(procvm.OpMeanPool, 2), ins(procvm.OpSlice, 0, 1), matvec, conv, pool}
	for _, op := range []procvm.OpCode{procvm.OpSoftmax, procvm.OpArgMax, procvm.OpMax, procvm.OpMean, procvm.OpSum} {
		popping = append(popping, ins(op))
	}
	for _, p := range popping {
		add("scalar/"+procvm.OpCode(p[0]).String(), nil, pushs, p)
	}
	for _, op := range []procvm.OpCode{procvm.OpDup, procvm.OpDrop, procvm.OpSwap, procvm.OpAdd, procvm.OpSub,
		procvm.OpMul, procvm.OpDiv, procvm.OpNeg, procvm.OpAbs, procvm.OpSquare, procvm.OpSqrt, procvm.OpClamp,
		procvm.OpNormalize, procvm.OpThreshold, procvm.OpReLU, procvm.OpSigmoid, procvm.OpTanh} {
		popping = append(popping, ins(op))
	}
	for _, p := range popping {
		add("underflow/"+procvm.OpCode(p[0]).String(), nil, p)
	}
	// The deeper operand positions.
	for _, op := range []procvm.OpCode{procvm.OpSwap, procvm.OpAdd, procvm.OpSub, procvm.OpMul, procvm.OpDiv, procvm.OpThreshold} {
		add("underflow2/"+op.String(), nil, pushs, ins(op))
	}
	for _, op := range []procvm.OpCode{procvm.OpAdd, procvm.OpSub, procvm.OpMul, procvm.OpDiv} {
		add("mismatch/"+op.String()+"/lengths", in2, input, pushv3, ins(op))
	}
	add("underflow2/clamp", nil, pushs, ins(procvm.OpClamp))
	add("underflow3/clamp", nil, pushs, pushs, ins(procvm.OpClamp))
	add("underflow2/normalize", nil, pushv3, ins(procvm.OpNormalize))
	add("underflow3/normalize", nil, pushv3, pushv3, ins(procvm.OpNormalize))
	add("type/clamp/hi", in2, input, pushs, pushv3, ins(procvm.OpClamp))
	add("type/clamp/lo", in2, input, pushv3, pushs, ins(procvm.OpClamp))
	add("type/normalize/std", in2, input, pushv3, pushs, ins(procvm.OpNormalize))
	add("type/normalize/mean", in2, input, pushs, pushv3, ins(procvm.OpNormalize))
	add("type/normalize/x", nil, pushs, pushv3, pushv3, ins(procvm.OpNormalize))
	add("mismatch/normalize/lengths", in2, input, pushv3, pushv3, ins(procvm.OpNormalize))
	add("type/threshold/t", in2, input, pushv3, ins(procvm.OpThreshold))
	for _, op := range []procvm.OpCode{procvm.OpArgMax, procvm.OpMax, procvm.OpMean, procvm.OpSum} {
		add("empty/"+op.String(), nil, input, ins(op))
	}

	add("meanpool/non-divisor", ramp(3), input, ins(procvm.OpMeanPool, 2))
	add("meanpool/zero", in2, input, ins(procvm.OpMeanPool, 0))
	add("slice/inverted", in9, input, ins(procvm.OpSlice, 3, 2))
	add("slice/past-end", in2, input, ins(procvm.OpSlice, 1, 3))
	add("matvec/input", ramp(3), input, matvec)
	add("matvec/zero-out", in2, input, ins(procvm.OpMatVec, 0, 1, 0))
	add("matvec/bias", in2, input, ins(procvm.OpMatVec, 0, 2, 2))
	add("matvec/weights", in2, input, ins(procvm.OpMatVec, 3, 1, 2))
	add("conv2d/input", in2, input, conv)
	add("conv2d/zero-channels", in9, input, ins(procvm.OpConv2D, 0, 2, 0, 3, 3, 1, 2, 2, 1, 0))
	add("conv2d/zero-stride", in9, input, ins(procvm.OpConv2D, 0, 2, 1, 3, 3, 1, 2, 2, 0, 0))
	add("conv2d/window", in9, input, ins(procvm.OpConv2D, 0, 2, 1, 3, 3, 1, 4, 2, 1, 0))
	add("conv2d/weights", in9, input, ins(procvm.OpConv2D, 3, 2, 1, 3, 3, 1, 2, 2, 1, 0))
	add("conv2d/bias", in9, input, ins(procvm.OpConv2D, 0, 1, 1, 3, 3, 1, 2, 2, 1, 0))
	add("maxpool2d/input", in2, input, pool)
	add("maxpool2d/zero-window", in9, input, ins(procvm.OpMaxPool2D, 1, 3, 3, 0, 1))
	add("maxpool2d/zero-stride", in9, input, ins(procvm.OpMaxPool2D, 1, 3, 3, 2, 0))
	add("maxpool2d/window", in9, input, ins(procvm.OpMaxPool2D, 1, 3, 3, 4, 1))

	add("pool/pushs", in2, input, ins(procvm.OpPushScalar, 1))
	add("pool/pushv", in2, input, ins(procvm.OpPushVector, 4))
	add("pool/matvec/w", in2, input, ins(procvm.OpMatVec, 4, 1, 2))
	add("pool/matvec/b", in2, input, ins(procvm.OpMatVec, 0, 4, 2))
	add("pool/conv2d/w", in9, input, ins(procvm.OpConv2D, 4, 2, 1, 3, 3, 1, 2, 2, 1, 0))
	add("pool/conv2d/b", in9, input, ins(procvm.OpConv2D, 0, 4, 1, 3, 3, 1, 2, 2, 1, 0))

	for _, p := range [][]byte{pushs, pushv3, ins(procvm.OpMeanPool, 2), ins(procvm.OpSlice, 0, 1), matvec, conv, pool} {
		add("truncated/"+procvm.OpCode(p[0]).String(), in9, input, p[:len(p)-1])
		add("truncated/"+procvm.OpCode(p[0]).String()+"/bare", in9, input, p[:1])
	}
	add("unknown/250", in2, input, []byte{250})
	for op := procvm.OpCode(0); ; op++ {
		if !op.Valid() {
			add("unknown/first-undefined", nil, []byte{byte(op)})
			break
		}
	}

	for _, p := range [][]byte{input, pushs, pushv3, ins(procvm.OpDup)} {
		c := runCase{name: "overflow/" + procvm.OpCode(p[0]).String(), mod: asm(input, input, p), input: in2}
		c.rt.MaxStack = 2
		cs = append(cs, c)
	}
	gas := func(name string, limit uint64, input []float32, parts ...[]byte) {
		c := runCase{name: "gas/" + name, mod: asm(parts...), input: input}
		c.rt.MaxGas = limit
		cs = append(cs, c)
	}
	gas("base", 2, in2, input)
	gas("base/second", 5, in2, input, ins(procvm.OpNeg))
	gas("matvec/base", 5, in2, input, matvec)
	gas("matvec/macs", 9, in2, input, matvec)
	gas("conv2d/base", 19, in9, input, conv)
	gas("conv2d/macs", 35, in9, input, conv)
	gas("maxpool2d/base", 19, in9, input, pool)
	gas("maxpool2d/window", 35, in9, input, pool)
	limited := asm(input, ins(procvm.OpSoftmax))
	limited.GasLimit = 10
	cs = append(cs, runCase{name: "gas/module-limit", mod: limited, input: in2})

	needy := asm(input)
	needy.Caps = procvm.CapSensor | procvm.CapNetwork
	cs = append(cs, runCase{name: "capability", mod: needy, input: in2, rt: procvm.Runtime{Granted: procvm.CapSensor}})
	add("empty-stack/no-code", in2)
	add("empty-stack/dropped", in2, input, ins(procvm.OpDrop))
	add("empty-stack/halt", in2, ins(procvm.OpHalt), input)
	return cs
}

var sentinels = map[string]error{
	"ErrBadModule": procvm.ErrBadModule, "ErrTypeMismatch": procvm.ErrTypeMismatch,
	"ErrStackUnderflow": procvm.ErrStackUnderflow, "ErrStackOverflow": procvm.ErrStackOverflow,
	"ErrOutOfGas": procvm.ErrOutOfGas, "ErrCapabilityDenied": procvm.ErrCapabilityDenied,
}

// TestRunErrorParity pins, for every row of errorCorpus, the sentinel Run
// fails with and the GasUsed of the failed Result against
// testdata/errors.golden, recorded at commit 2ff9725 with run.golden.
func TestRunErrorParity(t *testing.T) {
	want := goldenRows(t, "testdata/errors.golden")
	corpus := errorCorpus()
	if len(want) != len(corpus) {
		t.Fatalf("testdata/errors.golden has %d rows, the corpus %d", len(want), len(corpus))
	}
	hit := make(map[string]bool)
	for _, c := range corpus {
		res, err := c.run()
		if err == nil {
			t.Errorf("%s: ran to %+v", c.name, res)
			continue
		}
		got := "unknown-error"
		for name, s := range sentinels {
			if errors.Is(err, s) {
				got = name
			}
		}
		hit[got] = true
		if got = fmt.Sprintf("%s gas=%d", got, res.GasUsed); got != want[c.name] {
			t.Errorf("%s: %v\n got %s\nwant %s", c.name, err, got, want[c.name])
		}
	}
	for name := range sentinels {
		if !hit[name] {
			t.Errorf("no row fails with %s", name)
		}
	}
}

// TestRunAllocationPins holds Run's and RunScratch's allocations where the
// serving benchmark reads them: the normalize and label modules around
// every serve_single query, and one compiled forward per procvm row. Run
// works in a fresh Scratch and hands its output to the caller, so it
// allocates the stack that Scratch starts with plus every value the run
// pushes — an input copy and one vector per pushv, matvec and activation.
// RunScratch allocates nothing once one run has sized its Scratch: the
// value stack and the decoded operands live there or on its own stack, and
// matvec hands the kernel bare slices, not tensor headers. History: 4 / 1
// / 4 / 6 while Run kept its stack in a 16-slot array on its own stack.
func TestRunAllocationPins(t *testing.T) {
	rng := tensor.NewRNG(22)
	for _, c := range []struct {
		run  runCase
		want float64
	}{
		{runCase{mod: built(t, procvm.NewBuilder("normalize").Input().Normalize(ramp(4), []float32{1, 2, 3, 4})), input: ramp(4)}, 5},
		{runCase{mod: built(t, procvm.NewBuilder("label").Input().ArgMax()), input: ramp(3)}, 2},
		{compiled(t, "sensor-mlp", mlp(rng, 4, 16, 3)), 5},
		{compiled(t, "kws-mlp", mlp(rng, 64, 256, 128, 10)), 7},
	} {
		rt := procvm.NewRuntime(c.run.mod.Caps)
		got := testing.AllocsPerRun(50, func() {
			if _, err := rt.Run(c.run.mod, c.run.input); err != nil {
				t.Fatal(err)
			}
		})
		if got != c.want {
			t.Errorf("%s: %v allocations per Run, want %v", c.run.mod.Name, got, c.want)
		}
		if got := scratchAllocs(t, rt, c.run.mod, c.run.input); got != 0 {
			t.Errorf("%s: %v allocations per warm RunScratch, want 0", c.run.mod.Name, got)
		}
	}
}

// scratchAllocs runs m once in a new Scratch, then counts what each run in
// that Scratch allocates.
func scratchAllocs(t *testing.T, rt *procvm.Runtime, m *procvm.Module, input []float32) float64 {
	t.Helper()
	var s procvm.Scratch
	run := func() {
		if _, err := rt.RunScratch(m, input, &s); err != nil {
			t.Fatal(err)
		}
	}
	run()
	return testing.AllocsPerRun(50, run)
}

// everyOp is one module that executes every row of the opcode table.
func everyOp(t testing.TB) *procvm.Module {
	return built(t, procvm.NewBuilder("every-op").
		Input().
		Conv2D(ramp(4), []float32{0.5, -1}, 2, 2, 2, 2, 1, 1, 1, 0).
		MaxPool2D(2, 2, 2, 1, 1).
		MatVec(ramp(8*4), []float32{0.25, -0.5, 1, 0}).
		ReLU().Sigmoid().Tanh().Emit(procvm.OpNeg).Abs().Emit(procvm.OpSquare).Sqrt().
		Emit(procvm.OpDup).Emit(procvm.OpSwap).Add().
		PushScalar(0.5).Sub().PushScalar(2).Mul().PushScalar(3).Emit(procvm.OpDiv).
		Clamp(-1, 1).
		Normalize([]float32{0.1, 0.2, 0.3, 0.4}, []float32{1, 0, 2, 0.5}).
		Emit(procvm.OpDup).PushScalar(0).Emit(procvm.OpThreshold).Add().
		Softmax().
		Emit(procvm.OpMeanPool, 2).
		Slice(0, 2).
		Emit(procvm.OpDup).Max().Emit(procvm.OpDrop).
		Emit(procvm.OpDup).Mean().Emit(procvm.OpDrop).
		Emit(procvm.OpDup).Sum().Emit(procvm.OpDrop).
		ArgMax().
		Emit(procvm.OpHalt))
}

// TestRunScratchAllocatesNothing pins a warm RunScratch at 0 allocations on
// a module that executes every instruction, and its output, gas and bits to
// Run's.
func TestRunScratchAllocatesNothing(t *testing.T) {
	m := everyOp(t)
	seen := make(map[procvm.OpCode]bool)
	for pc := 0; pc < len(m.Code); pc += 1 + 2*procvm.OpCode(m.Code[pc]).Operands() {
		seen[procvm.OpCode(m.Code[pc])] = true
	}
	for op := procvm.OpCode(0); op.Valid(); op++ {
		if !seen[op] {
			t.Errorf("the module does not execute %v", op)
		}
	}
	rt, input := procvm.NewRuntime(procvm.CapNone), ramp(8)
	want, err := rt.Run(m, input)
	if err != nil {
		t.Fatal(err)
	}
	var s procvm.Scratch
	for i := 0; i < 2; i++ {
		got, err := rt.RunScratch(m, input, &s)
		if err != nil || got.GasUsed != want.GasUsed || got.Output.IsVec || math.Float32bits(got.Output.Scalar) != math.Float32bits(want.Output.Scalar) {
			t.Fatalf("run %d: RunScratch gave %+v, %v; Run gave %+v", i, got, err, want)
		}
	}
	if got := scratchAllocs(t, rt, m, input); got != 0 {
		t.Errorf("%v allocations per warm RunScratch, want 0", got)
	}
}

// TestScratchKeepsABoundedSlab holds what a Scratch keeps to MaxStack
// vectors of the longest a run carved, on modules whose carves add up to
// far more because gas does not meter them by length: a constant pushed
// onto a scalar and dropped, and a long input duplicated and dropped, in a
// loop. Each still gives Run's result, run after run.
func TestScratchKeepsABoundedSlab(t *testing.T) {
	const n, loops = 1 << 12, 200
	churn := procvm.NewBuilder("churn").PushScalar(0).PushVector(make([]float32, n)).Emit(procvm.OpDrop)
	dupDrop := procvm.NewBuilder("dup-drop").Input()
	for i := 0; i < loops; i++ {
		churn.Emit(procvm.OpPushVector, 0).Emit(procvm.OpDrop)
		dupDrop.Emit(procvm.OpDup).Emit(procvm.OpDrop)
	}
	rt := procvm.NewRuntime(procvm.CapNone)
	for _, c := range []runCase{
		{mod: built(t, churn), input: ramp(4)},
		{mod: built(t, dupDrop.Sum()), input: make([]float32, n)},
	} {
		want, err := rt.Run(c.mod, c.input)
		if err != nil {
			t.Fatal(err)
		}
		var s procvm.Scratch
		for i := 0; i < 3; i++ {
			got, err := rt.RunScratch(c.mod, c.input, &s)
			if err != nil || got.GasUsed != want.GasUsed || !sameValue(got.Output, want.Output) {
				t.Fatalf("%s run %d: RunScratch gave %+v, %v; Run gave %+v", c.mod.Name, i, got, err, want)
			}
		}
		if got, bound := s.SlabLen(), rt.MaxStack*n; got > bound {
			t.Errorf("%s: the Scratch keeps %d floats, more than MaxStack × %d = %d", c.mod.Name, got, n, bound)
		}
	}
}

// FuzzRunModule executes what decodes, and what does not. The bytes are
// run twice: as a PVM1 blob through DecodeModule, and directly as the code
// of a module over handPool that never saw Validate, so the checks Run
// makes for itself are what stands between the bytes and a panic. A run
// that succeeds stayed within the gas limit in force and left a value; one
// that fails, fails with one of the six sentinels. Every module also runs
// through RunScratch in one Scratch, reused and dirty from input to input,
// and must give Run's output bits, gas and error.
func FuzzRunModule(f *testing.F) {
	for _, c := range successCorpus(f) {
		f.Add(c.mod.Encode())
		f.Add(c.mod.Code)
	}
	for _, c := range errorCorpus() {
		f.Add(c.mod.Code)
	}
	// (2−3)/2+1 truncates to one window that does not fit its map: the
	// index panic this target was written against.
	f.Add(bytes.Join([][]byte{ins(procvm.OpInput), ins(procvm.OpMaxPool2D, 1, 2, 2, 3, 2)}, nil))
	f.Add(bytes.Join([][]byte{ins(procvm.OpInput), ins(procvm.OpConv2D, 0, 2, 1, 2, 2, 1, 3, 3, 2, 0)}, nil))

	rt := procvm.NewRuntime(procvm.CapNone)
	input := ramp(4)
	var s procvm.Scratch
	f.Fuzz(func(t *testing.T, data []byte) {
		mods := []*procvm.Module{asm(data)}
		if m, err := procvm.DecodeModule(data); err == nil {
			mods = append(mods, m)
		}
		for _, m := range mods {
			limit := rt.MaxGas
			if m.GasLimit > 0 && m.GasLimit < limit {
				limit = m.GasLimit
			}
			res, err := rt.Run(m, input)
			got, gotErr := rt.RunScratch(m, input, &s)
			if fmt.Sprint(gotErr) != fmt.Sprint(err) || got.GasUsed != res.GasUsed || !sameValue(got.Output, res.Output) {
				t.Fatalf("RunScratch gave %+v, %v; Run gave %+v, %v", got, gotErr, res, err)
			}
			if err == nil {
				if res.GasUsed > limit {
					t.Fatalf("used %d gas of %d", res.GasUsed, limit)
				}
				continue
			}
			known := false
			for _, s := range sentinels {
				known = known || errors.Is(err, s)
			}
			if !known {
				t.Fatalf("Run failed outside the sentinels: %v", err)
			}
		}
	})
}

// sameValue reports whether two values are the same kind and bits.
func sameValue(a, b procvm.Value) bool {
	if a.IsVec != b.IsVec || math.Float32bits(a.Scalar) != math.Float32bits(b.Scalar) || len(a.Vec) != len(b.Vec) {
		return false
	}
	for i := range a.Vec {
		if math.Float32bits(a.Vec[i]) != math.Float32bits(b.Vec[i]) {
			return false
		}
	}
	return true
}
