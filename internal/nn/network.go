package nn

import (
	"fmt"
	"slices"

	"tinymlops/internal/tensor"
)

// Network is a sequential stack of layers. It is the model artifact the
// whole platform manipulates: the registry stores serialized Networks, the
// quantizer derives variants from them, the federated coordinator averages
// their flattened parameters and the verifier lifts their dense layers into
// field arithmetic.
//
// A Network is admitted once, when Assemble makes it: shape inference runs
// then, and its result — the plan, one LayerCost per layer — is kept. The
// layer list is fixed from then on, so the plan cannot go stale, and every
// reader (Summary, the executors, the registry, the compiler, Subnet, the
// batch compiler) reads it instead of inferring again. Like params, the
// plan is built eagerly, never lazily: a per-version image is one Network
// read by many goroutines, and a first-use cache would be a write they race
// on.
type Network struct {
	// InputShape is the per-example input shape (batch dimension excluded),
	// e.g. [16] for a 16-feature MLP or [1, 16, 16] for a 1-channel image.
	// It is read-only: the plan was inferred from it.
	InputShape []int

	layers []Layer
	params []*Param // every layer's Params, in layer order
	plan   []LayerCost

	train *trainPlan   // Train's buffers (train.go), made by the first Train
	specs [2]LayerSpec // ResetFrom's scratch, reused from call to call
	// deltaFixed is what a TMLD1 patch of this topology costs whatever its
	// parameters hold (LayerSpec.deltaFixed), counted once for DeltaSize.
	deltaFixed int
}

// Assemble is the one way a Network is made, and where it is admitted:
// every layer must be a kind of the table in kinds.go, and the shapes must
// chain from inputShape. Both model decoders end here, so bytes whose shapes
// do not chain are a decode error, not a panic in a serving kernel.
func Assemble(inputShape []int, layers []Layer) (*Network, error) {
	return assemble(slices.Clone(inputShape), slices.Clone(layers))
}

// assemble is Assemble over slices the network may keep.
func assemble(in []int, layers []Layer) (*Network, error) {
	if err := checkInputShape(in); err != nil {
		return nil, err
	}
	n := &Network{InputShape: in, layers: layers, plan: make([]LayerCost, len(layers))}
	var s LayerSpec // reused from layer to layer
	var sig [64]byte
	n.deltaFixed = len(deltaMagic) + 4 + len(appendShapeSignature(sig[:0], in)) + 4
	for i, l := range layers {
		if !s.load(l) {
			return nil, fmt.Errorf("nn: layer %d: %w", i, errForeign(l))
		}
		info, err := l.Describe(in)
		if err != nil {
			return nil, fmt.Errorf("nn: layer %d (%s): %w", i, l.Kind(), err)
		}
		n.plan[i] = LayerCost{Index: i, Kind: l.Kind(), Info: info}
		params := l.Params()
		n.params = append(n.params, params...)
		n.deltaFixed += s.deltaFixed(params, sig[:0])
		in = info.OutShape
	}
	return n, nil
}

// maxInputElements caps the per-example input size a network accepts: the
// element cap of the tensor codec, since no larger input could be carried.
const maxInputElements = 1 << 28

// checkInputShape rejects a declared input shape no query could have: no
// dimension at all, a dimension below one, or more elements than
// maxInputElements.
func checkInputShape(shape []int) error {
	total, ok := 1, len(shape) > 0
	for _, d := range shape {
		// Checked per dimension, before multiplying: a product of large
		// dimensions would wrap around to a small count.
		if d < 1 || d > maxInputElements/total {
			ok = false
			break
		}
		total *= d
	}
	if !ok {
		return fmt.Errorf("nn: implausible input shape %v", shape)
	}
	return nil
}

// NewNetwork is Assemble for a network built in code, where layers that do
// not fit together are a programmer error: it panics with Assemble's error.
func NewNetwork(inputShape []int, layers ...Layer) *Network {
	n, err := Assemble(inputShape, layers)
	if err != nil {
		panic(err.Error())
	}
	return n
}

// Layers returns the layer list (shared, do not mutate).
func (n *Network) Layers() []Layer { return n.layers }

// enter is the one shape check on a batch: x must be [batch, InputShape...].
// Past it every layer sees the shape Assemble admitted for it, so no kernel
// checks again. A batch that does not fit is a caller bug and panics here.
func (n *Network) enter(x *tensor.Tensor) {
	if !slices.Equal(x.Shape()[1:], n.InputShape) {
		panic(fmt.Sprintf("nn: input %v does not fit the network, which takes [n %v] at layer 0", x.Shape(), n.InputShape))
	}
}

// Forward runs the training pass on a batch: dropout draws its masks,
// batch norm normalizes over the batch and moves its running statistics,
// and every layer caches what Backward needs. It is Train's, not an
// inference entry point.
func (n *Network) Forward(x *tensor.Tensor) *tensor.Tensor {
	n.enter(x)
	for _, l := range n.layers {
		x = l.Forward(x)
	}
	return x
}

// Predict runs inference on a batch: ForwardBatch on a fresh Scratch, so
// no later call overwrites the result.
func (n *Network) Predict(x *tensor.Tensor) *tensor.Tensor { return n.ForwardBatch(x, nil) }

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
		p.grad().Zero()
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

// Summary returns the plan: per layer, the per-example output shape and
// costs Assemble inferred. It is the bridge to the device cost model: MACs
// and activation sizes feed latency/energy/memory estimates. The list is
// shared and read-only. The error is always nil — inference ran, and
// succeeded, when the network was made — and stays in the signature only
// because the benchmark harness (bench/offload.go) calls it that way.
func (n *Network) Summary() ([]LayerCost, error) { return n.plan, nil }

// TotalMACs returns the per-example multiply-accumulate count.
func (n *Network) TotalMACs() int64 {
	var total int64
	for _, c := range n.plan {
		total += c.Info.MACs
	}
	return total
}

// OutputShape returns the per-example output shape (shared, read-only).
func (n *Network) OutputShape() []int {
	if len(n.plan) == 0 {
		return n.InputShape
	}
	return n.plan[len(n.plan)-1].Info.OutShape
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

// Clone returns a deep copy of the network: each layer is taken apart
// through the kind table and rebuilt by its constructor over copies of its
// tensors, as a decoder would rebuild it — a dropout layer's mask stream
// restarts. The copy shares the source's read-only plan. A caller that needs
// one independent copy after another of the same model — the federated
// simulator, once per client — clones once and uses ResetFrom after that.
func (n *Network) Clone() *Network {
	c := &Network{InputShape: n.InputShape, layers: make([]Layer, len(n.layers)), plan: n.plan, deltaFixed: n.deltaFixed}
	var s LayerSpec
	for i, l := range n.layers {
		s.load(l)
		for j, t := range s.Tensors {
			s.Tensors[j] = t.Clone()
		}
		c.layers[i] = kinds[s.Kind].build(s)
		c.params = append(c.params, c.layers[i].Params()...)
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
// compared as the copy goes, in specs n keeps, without allocating; a network
// of another topology is an error and leaves n partly overwritten.
func (n *Network) ResetFrom(src *Network) error {
	if len(n.layers) != len(src.layers) {
		return fmt.Errorf("nn: ResetFrom: %d layers, source has %d", len(n.layers), len(src.layers))
	}
	dst, from := &n.specs[0], &n.specs[1]
	for i, l := range n.layers {
		dst.load(l)
		from.load(src.layers[i])
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
	clear(from.Tensors[:cap(from.Tensors)]) // n keeps no reference to src
	n.ZeroGrad()
	return nil
}
