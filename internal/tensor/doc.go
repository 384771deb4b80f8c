// Package tensor implements dense float32 tensors and the numeric kernels
// (element-wise arithmetic, reductions, blocked parallel matrix multiply)
// that the rest of the TinyMLOps stack builds on.
//
// Tensors are row-major and contiguous. The package is deliberately small:
// it provides exactly the operations the neural-network engine
// (internal/nn), the quantizer (internal/quant) and the verifiable-execution
// layer (internal/verify) need, implemented with the standard library only.
//
// The float matmul kernel is column-blocked for cache residency and fans
// rows out over a bounded goroutine pool above a work threshold; blocking
// and parallelism are both arranged so every output element accumulates
// in a fixed order, keeping results bit-identical across worker counts —
// the property the fleet engine's determinism contract rests on. Within
// that order it works like the integer kernels below: each row chunk
// lists its nonzero activations, and foldFloat32 folds four listed weight
// rows per pass into a register, adding them one at a time in list order
// with a float32 rounding after each product and each add, exactly as the
// scalar ikj loop does. The float32(a*b) conversions also keep arm64 from
// fusing the multiply into the add, which would skip a rounding; CI fails
// on a fused instruction in any function of this package in an arm64 build.
// MatMulRowsInto is the kernel's entry over bare slices, MatMulInto the
// shape-checking form over tensors. It is the one float product: training
// runs its backward products through it too, over an operand internal/nn
// transposes, so there is no transposed-product kernel.
//
// The integer serving kernels relax the ordering constraint instead of
// fighting it: integer accumulation is exact and commutative, so the int8
// and packed-int4 kernels are free to unroll, retile, reorder and skip
// zeros while staying bit-identical to a naive scalar triple loop at any
// worker count. The dense kernels work on column pairs lo + hi<<32: one
// 64-bit multiply retires both columns' MACs, the scalar analogue of a
// SIMD kernel. MatMulInt8Pairs reads int8 weights widened to pairs once
// (PackInt8Pairs); MatMulInt4 never unpacks its operand
// (PackInt4/UnpackInt4/PackInt4Matrix define a canonical two-codes-per-byte
// encoding, low nibble first, zero pad) and expands each byte to a pair
// through a 256-entry table. Both walk a per-row list of the nonzero
// activations, so a zero costs neither a multiply nor a branch. All kernel
// scratch lives on the worker's stack, so the serving hot loop allocates
// nothing.
//
// window.go is the module's one description of a sliding window: Window
// says which geometry is valid and how many positions it takes, and Im2col,
// Col2im and MaxPool share one walk over its taps, so a convolution or a
// pooling is the same arithmetic under nn, quant and procvm.
//
// AppendBinary encodes a tensor as TMLT1, and Decode reads one on the
// internal/wire cursor into the tensor's own storage when it is large
// enough; WriteTo and ReadFrom are io adapters over the two.
//
// All stochastic helpers take an explicit *RNG so every higher layer is
// reproducible from a seed.
package tensor
