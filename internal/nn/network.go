package nn

import (
	"errors"
	"fmt"
	"slices"

	"tinymlops/internal/tensor"
)

// Network is a sequential stack of layers. It is the model artifact the
// whole platform manipulates: the registry stores serialized Networks, the
// quantizer derives variants from them, the federated coordinator averages
// their flattened parameters and the verifier lifts their dense layers into
// field arithmetic.
type Network struct {
	// InputShape is the per-example input shape (batch dimension excluded),
	// e.g. [16] for a 16-feature MLP or [1, 16, 16] for a 1-channel image.
	InputShape []int

	layers []Layer
	// params is every layer's Params in layer order. It is built as layers
	// are added and never lazily: a per-version image is one Network read
	// by many goroutines, and a first-use cache would be a write they race
	// on.
	params []*Param
}

// NewNetwork returns a network over the given per-example input shape.
func NewNetwork(inputShape []int, layers ...Layer) *Network {
	n := &Network{InputShape: append([]int(nil), inputShape...)}
	for _, l := range layers {
		n.Add(l)
	}
	return n
}

// Add appends a layer and returns the network for chaining.
func (n *Network) Add(l Layer) *Network {
	n.layers = append(n.layers, l)
	n.params = append(n.params, l.Params()...)
	return n
}

// Layers returns the layer list (shared, do not mutate).
func (n *Network) Layers() []Layer { return n.layers }

// Forward runs the network on a batch. train toggles training behaviour
// (dropout, batch-norm statistics).
func (n *Network) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	for _, l := range n.layers {
		x = l.Forward(x, train)
	}
	return x
}

// Predict is Forward in inference mode.
func (n *Network) Predict(x *tensor.Tensor) *tensor.Tensor { return n.Forward(x, false) }

// paramBackward is Backward for a layer nothing reads the input gradient
// of: it accumulates the parameter gradients exactly as Backward does and
// forms no dx.
type paramBackward interface {
	backwardParams(grad *tensor.Tensor)
}

// Backward propagates the loss gradient through all layers, accumulating
// parameter gradients. The gradient w.r.t. the network input is not formed:
// training has no use for it, and for a first dense or convolution layer it
// is a matrix product as large as the weight gradient's.
func (n *Network) Backward(grad *tensor.Tensor) {
	if len(n.layers) == 0 {
		return
	}
	for i := len(n.layers) - 1; i > 0; i-- {
		grad = n.layers[i].Backward(grad)
	}
	if pb, ok := n.layers[0].(paramBackward); ok {
		pb.backwardParams(grad)
	} else {
		n.layers[0].Backward(grad)
	}
}

// Params returns every trainable parameter in layer order (shared, do not
// mutate).
func (n *Network) Params() []*Param { return n.params }

// ZeroGrad resets all accumulated gradients.
func (n *Network) ZeroGrad() {
	for _, p := range n.Params() {
		p.Grad.Zero()
	}
}

// ParamCount returns the total number of trainable scalars.
func (n *Network) ParamCount() int {
	total := 0
	for _, p := range n.Params() {
		total += p.Value.Size()
	}
	return total
}

// FlatParams copies all parameter values into one flat vector, in layer
// order. Together with SetFlatParams it gives federated learning and
// watermarking a stable vector view of the model.
func (n *Network) FlatParams() []float32 {
	out := make([]float32, 0, n.ParamCount())
	for _, p := range n.Params() {
		out = append(out, p.Value.Data...)
	}
	return out
}

// SetFlatParams writes a flat vector produced by FlatParams back into the
// parameters. It returns an error if the length does not match.
func (n *Network) SetFlatParams(v []float32) error {
	if len(v) != n.ParamCount() {
		return fmt.Errorf("nn: SetFlatParams length %d, model has %d parameters", len(v), n.ParamCount())
	}
	off := 0
	for _, p := range n.Params() {
		copy(p.Value.Data, v[off:off+p.Value.Size()])
		off += p.Value.Size()
	}
	return nil
}

// LayerCost is the per-layer entry of a network summary.
type LayerCost struct {
	Index int
	Kind  string
	Info  LayerInfo
}

// Summary performs a shape-inference pass from InputShape and returns
// per-layer costs. It is the bridge to the device cost model: MACs and
// activation sizes feed latency/energy/memory estimates.
func (n *Network) Summary() ([]LayerCost, error) {
	if err := checkInputShape(n.InputShape); err != nil {
		return nil, err
	}
	in := append([]int(nil), n.InputShape...)
	out := make([]LayerCost, 0, len(n.layers))
	for i, l := range n.layers {
		info, err := l.Describe(in)
		if err != nil {
			return nil, fmt.Errorf("nn: layer %d (%s): %w", i, l.Kind(), err)
		}
		out = append(out, LayerCost{Index: i, Kind: l.Kind(), Info: info})
		in = info.OutShape
	}
	return out, nil
}

// TotalMACs returns the per-example multiply-accumulate count, or an error
// if shape inference fails.
func (n *Network) TotalMACs() (int64, error) {
	cs, err := n.Summary()
	if err != nil {
		return 0, err
	}
	var total int64
	for _, c := range cs {
		total += c.Info.MACs
	}
	return total, nil
}

// OutputShape returns the per-example output shape.
func (n *Network) OutputShape() ([]int, error) {
	cs, err := n.Summary()
	if err != nil {
		return nil, err
	}
	if len(cs) == 0 {
		return append([]int(nil), n.InputShape...), nil
	}
	return cs[len(cs)-1].Info.OutShape, nil
}

// OpKinds returns the set of operator kinds the network uses; the
// fragmentation layer checks it against device op-support matrices.
func (n *Network) OpKinds() []string {
	seen := make(map[string]bool)
	var out []string
	for _, l := range n.layers {
		if !seen[l.Kind()] {
			seen[l.Kind()] = true
			out = append(out, l.Kind())
		}
	}
	return out
}

// Clone returns a deep copy of the network (architecture and weights) by
// round-tripping through the binary serialization. A caller that needs one
// independent copy after another of the same model — the federated
// simulator, once per client — clones once and uses ResetFrom after that.
func (n *Network) Clone() *Network {
	data, err := n.MarshalBinary()
	if err != nil {
		panic(fmt.Sprintf("nn: Clone marshal: %v", err))
	}
	c, err := UnmarshalNetwork(data)
	if err != nil {
		panic(fmt.Sprintf("nn: Clone unmarshal: %v", err))
	}
	return c
}

// decodeState is implemented by a layer that carries state the model format
// does not: resetDecodeState returns it to what a decoded layer starts
// with. The kind table's constructor and ResetFrom both go through it.
type decodeState interface {
	resetDecodeState()
}

// ResetFrom makes n, a used copy of src, indistinguishable from a fresh
// src.Clone() without allocating one: every tensor the kind table lists for
// a layer — parameters and batch-norm running statistics — takes src's
// values, accumulated gradients return to zero, and state the format does
// not carry returns to what a decode gives it (a dropout layer's mask
// stream restarts). What a layer caches between Forward and Backward needs
// no reset: Forward overwrites it. Layer kinds, config and tensor sizes are
// compared as the copy goes; a network of another topology is an error and
// leaves n partly overwritten.
func (n *Network) ResetFrom(src *Network) error {
	if len(n.layers) != len(src.layers) {
		return fmt.Errorf("nn: ResetFrom: %d layers, source has %d", len(n.layers), len(src.layers))
	}
	var dst, from LayerSpec
	for i, l := range n.layers {
		if err := errors.Join(dst.load(l), from.load(src.layers[i])); err != nil {
			return fmt.Errorf("nn: ResetFrom layer %d: %w", i, err)
		}
		if dst.Kind != from.Kind || !slices.Equal(dst.Ints, from.Ints) || !slices.Equal(dst.Floats, from.Floats) {
			return fmt.Errorf("nn: ResetFrom layer %d: %s%v%v, source has %s%v%v",
				i, dst.Kind, dst.Ints, dst.Floats, from.Kind, from.Ints, from.Floats)
		}
		for j, t := range dst.Tensors {
			if t.Size() != from.Tensors[j].Size() {
				return fmt.Errorf("nn: ResetFrom layer %d (%s): tensor %d has %d elements, source has %d",
					i, dst.Kind, j, t.Size(), from.Tensors[j].Size())
			}
			t.CopyFrom(from.Tensors[j])
		}
		if ds, ok := l.(decodeState); ok {
			ds.resetDecodeState()
		}
	}
	n.ZeroGrad()
	return nil
}
