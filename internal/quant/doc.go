// Package quant derives the optimized model variants of §III-A and
// executes them: post-training quantization to int8/int4/ternary/binary
// with per-channel scales (stored as exact float32 artifacts, shipped at
// packed size), the QModel integer runtime, fake-quantization for
// accuracy evaluation and global magnitude pruning.
//
// QModel is a first-class servable, not an evaluation aid: dense and
// convolutional layers run on the blocked integer kernel in
// internal/tensor with dynamic per-example activation quantization (a
// convolution unrolls its int8 codes through the tensor.Im2col the float
// engine uses, over the same tensor.Window). Every other layer stays
// float32 and has no code here: it is a one-layer Subnet of the network,
// run by nn's compiled batch program, so each float kind has one kernel,
// nn's, and a new kind needs no quant case. ForwardBatch serves whole
// bursts through reusable QScratch buffers — allocation-free in the
// steady state, bit-identical to a pass per example, and safe for any
// number of goroutines over one shared model (one scratch each). What is
// known when a model is lowered lives on the model: every stage keeps the
// input and output shape the network's plan holds (a convolution its
// window, tap count and strides), so a pass checks its batch where it
// enters, and no stage derives geometry per call. What is per goroutine
// lives in the QScratch: one output buffer per integer stage, sized by
// the batch, one nn.Scratch per float stage, holding its program, and the
// int8, widened-column and scale workspaces. Weights are laid out once,
// at NewQModel, in the form their kernel reads, and every integer layer
// runs one kernel, tensor.MatMulInterleaved, whose SSE2 PMADDWD fold
// multiplies a code pair by four columns' int16 pairs per instruction, so
// int4 serves as fast as int8. Dense weights are its right operand:
// codes widened to int16 and interleaved along k, 2 bytes of RAM per
// weight whatever the nominal width. kws-mlp's dense layers hold 100,864
// bytes, against 50,432 as int8 codes and 25,216 as packed int4. A
// convolution keeps its per-output-channel weights on the left as int8
// codes, 1 byte per code at int8 and int4 alike, and widens each
// example's im2col columns on the right into a QScratch workspace of 2
// bytes per tap (an odd count rounded up) and output position. So a 4-bit
// deployment's flash and link see the 4-bit form — SizeBytes and every
// modelled flash and link figure keep the nominal width — but its RAM
// does not. The serving layer (internal/core) instantiates a QModel for
// every integer variant on every device, so the variant matrix governs
// the executing kernels, not just artifact sizes, and one variant computes
// one function: hardware without the bit width runs the same kernels and
// pays only the modelled emulation penalty.
//
// The paper's pipeline observation is that every published model fans
// out into a matrix of precision × sparsity variants, and which one a
// device gets is a deployment-time decision, not a training-time one:
// the registry (internal/registry) calls into this package on publish to
// materialize the matrix, and per-device selection (internal/selector)
// scores the results against each device's memory, latency and native
// bit-width support — where §III-A's warning lands that low precision
// buys nothing without hardware kernels (see E3, and the emulation
// penalty devices without a bit width pay at serving time).
package quant
