package tensor_test

import (
	"math"
	"slices"
	"testing"

	"tinymlops/internal/nn"
	"tinymlops/internal/procvm"
	"tinymlops/internal/tensor"
)

// TestActivationsAgreeAcrossBackends: nn's layers and procvm's opcodes run
// one kernel per activation, so on edge payloads — NaN, ±Inf, ±0, tiny and
// saturating magnitudes — the kernel out of place and in place, a one-layer
// network, a compiled module over the vector and one over each element as a
// scalar all give the same bits.
func TestActivationsAgreeAcrossBackends(t *testing.T) {
	nan, inf := float32(math.NaN()), float32(math.Inf(1))
	x := []float32{nan, inf, -inf, 0, float32(math.Copysign(0, -1)), 1e-8, -3.5, 20, -90, 0.75}
	row := []float32{-2, 0.5, 3, -0.25, 1e-3, 7}
	for _, c := range []struct {
		name   string
		in     []float32
		layer  nn.Layer
		op     func(*procvm.Builder) *procvm.Builder
		kernel func(dst, x []float32)
		scalar bool
	}{
		{"relu", x, nn.NewReLU(), (*procvm.Builder).ReLU, tensor.ReLU, true},
		{"sigmoid", x, nn.NewSigmoid(), (*procvm.Builder).Sigmoid, tensor.Sigmoid, true},
		{"tanh", x, nn.NewTanh(), (*procvm.Builder).Tanh, tensor.Tanh, true},
		{"softmax", row, nn.NewSoftmax(), (*procvm.Builder).Softmax,
			func(dst, x []float32) { tensor.SoftmaxRows(dst, x, 1, len(x)) }, false},
	} {
		want := make([]float32, len(c.in))
		c.kernel(want, c.in)
		same := func(how string, got []float32) {
			t.Helper()
			if !slices.EqualFunc(got, want, func(a, b float32) bool { return math.Float32bits(a) == math.Float32bits(b) }) {
				t.Errorf("%s %s: %v, the kernel gives %v", c.name, how, got, want)
			}
		}
		inPlace := slices.Clone(c.in)
		c.kernel(inPlace, inPlace)
		same("in place", inPlace)
		net := nn.NewNetwork([]int{len(c.in)}, c.layer)
		same("as an nn layer", net.Predict(tensor.FromSlice(slices.Clone(c.in), 1, len(c.in))).Data)
		rt := procvm.NewRuntime(0)
		m, err := c.op(procvm.NewBuilder(c.name).Input()).Build()
		if err != nil {
			t.Fatal(err)
		}
		res, err := rt.Run(m, c.in)
		if err != nil {
			t.Fatal(err)
		}
		same("as a procvm opcode", res.Output.Vec)
		for i := 0; c.scalar && i < len(c.in); i++ {
			m, err := c.op(procvm.NewBuilder(c.name).PushScalar(c.in[i])).Build()
			if err != nil {
				t.Fatal(err)
			}
			res, err := rt.Run(m, nil)
			if err != nil {
				t.Fatal(err)
			}
			if got := res.Output.Scalar; res.Output.IsVec || math.Float32bits(got) != math.Float32bits(want[i]) {
				t.Errorf("%s of the scalar %v: %v, the kernel gives %v", c.name, c.in[i], got, want[i])
			}
		}
	}
	// A softmax over an empty vector writes nothing and reads nothing.
	tensor.SoftmaxRows(nil, nil, 1, 0)
}
