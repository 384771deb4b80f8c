// Package nn is a from-scratch neural-network engine: layers with forward
// and backward passes, losses, optimizers, a training loop, binary model
// serialization and per-layer cost accounting.
//
// It plays the role TFLite-Micro/ONNX-Runtime play for the paper: the
// inference substrate every TinyMLOps feature (quantization, watermarking,
// federated learning, verifiable execution) operates on. Keeping it in-repo
// gives those features full access to weights, gradients and layer
// structure.
//
// Tensors follow the conventions of internal/tensor: dense layers take
// [batch, features]; convolutional layers take [batch, channels, h, w].
// Conv2D and MaxPool2D describe their geometry as a tensor.Window and run
// tensor/window.go's kernels; nothing here restates what a window is.
//
// A network is admitted once, when it is made. Assemble — behind
// NewNetwork, UnmarshalNetwork and compat.Import — refuses a layer outside
// the kind table and shapes that do not chain, and keeps the plan, each
// layer's output shape and cost, on the Network. Describe is called there
// and nowhere else: Summary returns the plan, and every consumer reads it.
// A batch is checked once, where it enters the network; no kernel checks
// its input shape again.
//
// Two forward paths exist. Layer.Forward caches what Backward needs, so a
// network is single-flight while training; Train runs from a plan on the
// network and buffers in its layers, so a steady-state epoch allocates
// nothing. Network.ForwardBatch is the serving path: the layer list
// compiled once per batch size into a fused program, allocation-free in the
// steady state, free of layer-state writes — so one model can serve many
// simulated devices concurrently — and bit-identical to per-sample Forward,
// which keeps it out of the accuracy story entirely. There is no third,
// uncompiled path: the compiler runs every kind of the table.
//
// What a layer kind is — config, state tensors, their wire order and
// exchange names — is one row of the table in kinds.go. The binary model
// format (MarshalBinary/UnmarshalNetwork, byte slices only), the weight
// delta, internal/compat's exchange document and Clone all read it through
// SpecOf and NewLayer or the row itself; see ARCHITECTURE.md, "Adding a
// layer kind".
package nn
