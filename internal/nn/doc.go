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
// Two forward paths exist. Layer.Forward caches what Backward needs, so a
// network is single-flight while training. Network.ForwardBatch is the
// serving path: the layer list compiled once per (batch, input shape) into
// a fused program, allocation-free in the steady state, free of
// layer-state writes — so one model can serve many simulated devices
// concurrently — and bit-identical to per-sample Forward, which keeps it
// out of the accuracy story entirely. There is no third, uncompiled path:
// a network the compiler rejects is a caller bug.
//
// What a layer kind is — config, state tensors, their wire order and
// exchange names — is one row of the table in kinds.go. The binary model
// format (MarshalBinary/UnmarshalNetwork, byte slices only), the weight
// delta and internal/compat's exchange document all read it through
// SpecOf and NewLayer; see ARCHITECTURE.md, "Adding a layer kind".
package nn
