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

// batch is a module's arena-resident output rows, the cached [rows, width]
// header over them and the VM's scratch, so no two concurrent runs share
// one.
type batch struct {
	data []float32
	hdr  *tensor.Tensor
	vm   procvm.Scratch
}

// Module returns the executor over a compiled module. granted is the
// capability set the host extends to it; features is the input width,
// which bytecode does not declare, so the caller passes the width its
// version records (below 1 is an error); macs is the per-query work the
// cost model charges for the single step.
func Module(mod *procvm.Module, granted procvm.Capability, features int, macs int64) (Executor, error) {
	if features < 1 {
		return nil, fmt.Errorf("exec: module %s needs an input width, got %d", mod.Name, features)
	}
	rt := procvm.NewRuntime(granted)
	if mod.GasLimit > rt.MaxGas {
		rt.MaxGas = mod.GasLimit
	}
	m := &moduleExec{mod: mod, rt: rt}
	m.in = []int{features}
	m.costs = []nn.LayerCost{{Kind: "module", Info: nn.LayerInfo{MACs: macs}}}
	return m, nil
}

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
		res, err := m.rt.RunScratch(m.mod, x.Data[i*cols:(i+1)*cols], &out.vm)
		if err != nil {
			return nil, fmt.Errorf("exec: module %s: %w", m.mod.Name, err)
		}
		if !res.Output.IsVec || len(res.Output.Vec) == 0 || len(res.Output.Vec)*i != len(out.data) {
			return nil, fmt.Errorf("exec: module %s did not produce one vector per row", m.mod.Name)
		}
		out.data = append(out.data, res.Output.Vec...)
	}
	if out.hdr == nil || out.hdr.Size() != len(out.data) || out.hdr.Dim(0) != rows {
		out.hdr = tensor.FromSlice(out.data, rows, len(out.data)/rows)
	}
	out.hdr.Data = out.data
	return out.hdr, nil
}

// Resume runs the whole module on the boundary, which is the raw input.
func (m *moduleExec) Resume(b *Boundary, cut int, ar *engine.Arena) (*tensor.Tensor, error) {
	return m.Run(&b.act, cut, 1, ar)
}
