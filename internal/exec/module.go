package exec

import (
	"fmt"

	"tinymlops/internal/engine"
	"tinymlops/internal/nn"
	"tinymlops/internal/procvm"
	"tinymlops/internal/tensor"
)

// moduleExec runs a compiled procvm module — the obfuscated portable
// format. Bytecode has no layer graph, so the module is one step: the only
// split is all-local versus the whole module remote (cut 0 ships the raw
// input). The VM is a single-vector machine; a batch executes row by row.
type moduleExec struct {
	graph
	mod *procvm.Module
	rt  *procvm.Runtime
}

// Module returns the executor over a compiled module. granted is the
// capability set the host extends to it; features is the input width (0
// when unknown — a module does not declare its geometry, and the VM then
// rejects a misshapen input at run time); macs is the per-query work the
// cost model charges for the single step.
func Module(mod *procvm.Module, granted procvm.Capability, features int, macs int64) Executor {
	rt := procvm.NewRuntime(granted)
	if mod.GasLimit > rt.MaxGas {
		rt.MaxGas = mod.GasLimit
	}
	m := &moduleExec{mod: mod, rt: rt}
	m.costs = []nn.LayerCost{{Kind: "module", Info: nn.LayerInfo{MACs: macs}}}
	if features > 0 {
		m.in = []int{features}
	}
	return m
}

func (m *moduleExec) Bits() int { return 32 }

func (m *moduleExec) Run(x *tensor.Tensor, lo, hi int, ar *engine.Arena) (*tensor.Tensor, error) {
	x, err := m.enter(x, lo, hi)
	if err != nil || lo == hi {
		return x, err
	}
	rows := x.Dim(0)
	cols := x.Size() / rows
	out := ar.Slot(m, func() any { return new(batch) }).(*batch)
	out.data = out.data[:0]
	for i := 0; i < rows; i++ {
		res, err := m.rt.Run(m.mod, x.Data[i*cols:(i+1)*cols])
		if err != nil {
			return nil, fmt.Errorf("exec: module %s: %w", m.mod.Name, err)
		}
		if !res.Output.IsVec || len(res.Output.Vec) == 0 || len(res.Output.Vec)*i != len(out.data) {
			return nil, fmt.Errorf("exec: module %s did not produce one vector per row", m.mod.Name)
		}
		out.data = append(out.data, res.Output.Vec...)
	}
	return out.view(rows, []int{len(out.data) / rows}), nil
}

// Resume runs the whole module on each boundary, which is the raw input.
func (m *moduleExec) Resume(bs []Boundary, cut int, ar *engine.Arena) (*tensor.Tensor, error) {
	if m.in == nil {
		return nil, fmt.Errorf("exec: module %s declares no input width to batch on", m.mod.Name)
	}
	return m.Run(gather(ar, m.mod, bs, m.in), cut, 1, ar)
}
