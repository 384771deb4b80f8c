package compat

import (
	"testing"

	"tinymlops/internal/nn"
	"tinymlops/internal/procvm"
	"tinymlops/internal/tensor"
)

// TestForwardAllocationPins pins one query on the offload pins' MLP
// (32→128→128→64→8) two ways, each with a held scratch, and neither
// allocates: through the compiled module on the capability-gated runtime
// (procvm's TestRunAllocationPins) and through the fused batch path it was
// lowered from. History: the module pinned at 8 — the input copy, one
// vector per matvec and one per activation — while every run allocated its
// values.
func TestForwardAllocationPins(t *testing.T) {
	rng := tensor.NewRNG(2)
	net := nn.NewNetwork([]int{32},
		nn.NewDense(32, 128, rng), nn.NewReLU(),
		nn.NewDense(128, 128, rng), nn.NewReLU(),
		nn.NewDense(128, 64, rng), nn.NewTanh(),
		nn.NewDense(64, 8, rng))
	m, err := CompileProcVM(net, CompileOptions{Name: "pin"})
	if err != nil {
		t.Fatal(err)
	}
	rt := procvm.NewRuntime(m.Caps)
	rt.MaxGas = m.GasLimit
	x := tensor.Randn(tensor.NewRNG(4), 1, 1, 32)
	scratch, vm := nn.NewScratch(), new(procvm.Scratch)
	for _, pin := range []struct {
		name string
		want float64
		op   func()
	}{
		{"compiled module", 0, func() {
			if _, err := rt.RunScratch(m, x.Data, vm); err != nil {
				t.Fatal(err)
			}
		}},
		{"native forward", 0, func() { net.ForwardBatch(x, scratch) }},
	} {
		pin.op()
		if got := testing.AllocsPerRun(100, pin.op); got != pin.want {
			t.Errorf("%s: one query allocates %v, pinned at %v", pin.name, got, pin.want)
		}
	}
}
