package tinymlops

import (
	"tinymlops/internal/compat"
	"tinymlops/internal/nn"
	"tinymlops/internal/quant"
	"tinymlops/internal/tensor"
)

// Numeric substrate.

// Tensor is a dense, row-major float32 tensor.
type Tensor = tensor.Tensor

// RNG is the deterministic generator every stochastic component draws
// from.
type RNG = tensor.RNG

// NewRNG returns a generator seeded from seed.
func NewRNG(seed uint64) *RNG { return tensor.NewRNG(seed) }

// FromSlice wraps data in a tensor of the given shape without copying.
func FromSlice(data []float32, shape ...int) *Tensor { return tensor.FromSlice(data, shape...) }

// Neural-network engine.

// Network is a sequential neural network — the model artifact the whole
// platform manipulates.
type Network = nn.Network

// Layer is one differentiable stage of a Network.
type Layer = nn.Layer

// TrainConfig controls the mini-batch training loop.
type TrainConfig = nn.TrainConfig

// NewNetwork returns a network over the given per-example input shape.
func NewNetwork(inputShape []int, layers ...Layer) *Network {
	return nn.NewNetwork(inputShape, layers...)
}

// UnmarshalNetwork decodes a TMLN1 artifact (Network.MarshalBinary's
// output) back into a network.
func UnmarshalNetwork(data []byte) (*Network, error) { return nn.UnmarshalNetwork(data) }

// ExchangeVersion is the JSON exchange format version ExportJSON writes.
const ExchangeVersion = compat.ExchangeVersion

// ExportJSON converts a network to the JSON exchange document other
// toolchains read.
func ExportJSON(net *Network) ([]byte, error) {
	doc, err := compat.Export(net)
	if err != nil {
		return nil, err
	}
	return doc.EncodeJSON()
}

// ImportJSON builds a network from a JSON exchange document, rejecting
// unknown ops, future versions and inconsistent tensors.
func ImportJSON(data []byte) (*Network, error) {
	doc, err := compat.DecodeJSON(data)
	if err != nil {
		return nil, err
	}
	return compat.Import(doc)
}

// Dense returns a fully connected layer with He initialization.
func Dense(in, out int, rng *RNG) Layer { return nn.NewDense(in, out, rng) }

// ReLU returns a rectified linear activation layer.
func ReLU() Layer { return nn.NewReLU() }

// SGD returns a stochastic gradient descent optimizer.
func SGD(lr float32) *nn.SGD { return nn.NewSGD(lr) }

// Train runs mini-batch classification training with softmax
// cross-entropy.
func Train(net *Network, x *Tensor, labels []int, cfg TrainConfig) (float32, error) {
	return nn.Train(net, x, labels, cfg)
}

// Evaluate returns classification accuracy of net on (x, labels).
func Evaluate(net *Network, x *Tensor, labels []int) float64 {
	return nn.Evaluate(net, x, labels)
}

// Quantization pipeline.

// Scheme selects a weight precision (Float32, Int8, Int4, Ternary,
// Binary).
type Scheme = quant.Scheme

// Quantization schemes.
const (
	Float32 = quant.Float32
	Int8    = quant.Int8
	Int4    = quant.Int4
	Ternary = quant.Ternary
	Binary  = quant.Binary
)

// FakeQuantize returns a float-engine copy of net with quantize-dequantize
// weights, for accuracy evaluation of low-bit variants.
func FakeQuantize(net *Network, scheme Scheme) (*Network, error) {
	return quant.FakeQuantizeNetwork(net, scheme)
}

// QuantizedSize returns net's serialized weight footprint in bytes with
// its weight matrices stored at the scheme's bit width.
func QuantizedSize(net *Network, scheme Scheme) int { return quant.NetworkSizeBytes(net, scheme) }
