package compat

import (
	"fmt"
	"math"

	"tinymlops/internal/nn"
	"tinymlops/internal/procvm"
	"tinymlops/internal/tensor"
)

// CompileOptions controls the compat→procvm lowering backend.
type CompileOptions struct {
	// Name labels the module; defaults to "compiled".
	Name string
}

// loweringTol bounds the deviation VerifyLowering accepts between the
// original network and its lowered (dropout-stripped, batchnorm-folded)
// form; folding is the only pass that moves float results. The compiled
// module itself must match the lowered network bit-exactly on every probe —
// that check has no tolerance.
const loweringTol = 1e-4

// CompileProcVM lowers a trained network into a gas-metered procvm.Module:
// the portable obfuscated deployment format. The pipeline is
// drop-dropout → fold-batchnorm → per-layer instruction selection, gated
// by VerifyLowering on the fold and by a bit-exact module-vs-network probe
// run on the final bytecode. The module's GasLimit is pinned to the exact
// measured cost of one inference (gas is a pure function of code and input
// length, so the pin is tight and deterministic across worker counts).
func CompileProcVM(net *nn.Network, opts CompileOptions) (*procvm.Module, error) {
	if opts.Name == "" {
		opts.Name = "compiled"
	}
	// The verification inputs for the compile-time gate: a deterministic
	// seeded batch of 4 examples.
	probes := tensor.Randn(tensor.NewRNG(0x9e3779b97f4a7c15), 1, append([]int{4}, net.InputShape...)...)

	lowered := net.Clone()
	dropDropout(lowered)
	if _, err := FoldBatchNorm(lowered); err != nil {
		return nil, fmt.Errorf("compat: compile: %w", err)
	}
	if err := VerifyLowering(net, lowered, probes, loweringTol); err != nil {
		return nil, fmt.Errorf("compat: compile: lowering gate: %w", err)
	}

	// The plan, inferred when the network was made, tells each instruction
	// its input shape.
	costs, _ := lowered.Summary()
	// The module requires CapSensor, the grant every deployment runtime
	// extends, so a compiled model refuses to run on a host that withholds it.
	b := procvm.NewBuilder(opts.Name).RequireCaps(procvm.CapSensor).Input()
	shape := lowered.InputShape
	for i, l := range lowered.Layers() {
		if err := selectInstruction(b, l, shape); err != nil {
			return nil, fmt.Errorf("compat: compile: layer %d: %w", i, err)
		}
		shape = costs[i].Info.OutShape
	}
	m, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("compat: compile: %w", err)
	}

	// Pin the gas limit to one inference's exact cost, then prove the
	// bytecode bit-identical to the lowered network on every probe.
	inLen := 1
	for _, d := range lowered.InputShape {
		inLen *= d
	}
	rt := &procvm.Runtime{Granted: procvm.CapSensor, MaxStack: 64, MaxGas: math.MaxUint64}
	var s procvm.Scratch
	res, err := rt.RunScratch(m, make([]float32, inLen), &s)
	if err != nil {
		return nil, fmt.Errorf("compat: compile: gas measurement: %w", err)
	}
	m.GasLimit = res.GasUsed

	want := lowered.Predict(probes)
	rows := probes.Dim(0)
	outLen := want.Size() / rows
	for r := 0; r < rows; r++ {
		row := probes.Data[r*inLen : (r+1)*inLen]
		got, err := rt.RunScratch(m, row, &s)
		if err != nil {
			return nil, fmt.Errorf("compat: compile: probe %d: %w", r, err)
		}
		if !got.Output.IsVec || len(got.Output.Vec) != outLen {
			return nil, fmt.Errorf("compat: compile: probe %d: module output shape mismatch", r)
		}
		for j, v := range got.Output.Vec {
			if math.Float32bits(v) != math.Float32bits(want.Data[r*outLen+j]) {
				return nil, fmt.Errorf("compat: compile: probe %d: module deviates from network at %d (%v != %v)",
					r, j, v, want.Data[r*outLen+j])
			}
		}
	}
	return m, nil
}

// selectInstruction emits the procvm form of one lowered layer whose
// per-example input shape (checked when the network was made) is in.
func selectInstruction(b *procvm.Builder, l nn.Layer, in []int) error {
	switch v := l.(type) {
	case *nn.Dense:
		b.MatVec(v.W.Value.Data, v.B.Value.Data)
	case *nn.ReLU:
		b.ReLU()
	case *nn.Sigmoid:
		b.Sigmoid()
	case *nn.Tanh:
		b.Tanh()
	case *nn.Softmax:
		b.Softmax()
	case *nn.Flatten:
		// The VM's value stack is already flat; reshape is a no-op.
	case *nn.Conv2D:
		b.Conv2D(v.W.Value.Data, v.B.Value.Data, v.InC, in[1], in[2], v.OutC, v.KH, v.KW, v.Stride, v.Pad)
	case *nn.MaxPool2D:
		b.MaxPool2D(in[0], in[1], in[2], v.K, v.Stride)
	default:
		return fmt.Errorf("no procvm lowering for %q", l.Kind())
	}
	return nil
}
