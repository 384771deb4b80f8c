// Package tensor implements dense float32 tensors and the numeric kernels
// (element-wise arithmetic, reductions, blocked matrix multiply)
// that the rest of the TinyMLOps stack builds on.
//
// Tensors are row-major and contiguous. The package is deliberately small:
// it provides exactly the operations the neural-network engine
// (internal/nn), the quantizer (internal/quant) and the verifiable-execution
// layer (internal/verify) need, implemented with the standard library only
// and two assembly files, matmul_amd64.s (the float fold) and
// matmul_int16_amd64.s (the integer one).
//
// Every kernel is a serial loop on the calling goroutine, as an MCU's
// per-operator kernels are on its one core: the package starts no
// goroutine, and the fleet engine (internal/engine) is the platform's only
// fan-out. The float matmul kernel is column-blocked for cache residency,
// and blocking only tiles columns, so every output element accumulates in
// a fixed order whatever engine worker runs it — the property the fleet
// engine's determinism contract rests on. Within
// that order it works like the integer kernels below: each row chunk
// lists its nonzero activations, and foldFloat32 folds four listed weight
// rows per pass into a register, adding them one at a time in list order
// with a float32 rounding after each product and each add, exactly as the
// scalar ikj loop does. The float32(a*b) conversions also keep arm64 from
// fusing the multiply into the add, which would skip a rounding; CI fails
// on a fused instruction in any function of this package in an arm64 build.
// On amd64 the fold is SSE2 assembly, four output columns per instruction,
// one element per lane: the same order and roundings, so the same bits (SSE
// has no fused multiply-add). SSE2 is amd64's baseline, so nothing detects
// the CPU. The Go fold (matmul_generic.go) is built wherever the assembly
// is not: off amd64, and in a race build, since the race detector cannot
// see the assembly's memory accesses. MatMulRowsInto checks its operands'
// lengths once, at entry, which keeps every row the fold reads inside b.
// MatMulRowsInto is the kernel's entry over bare slices, MatMulInto the
// shape-checking form over tensors. It is the one float product: training
// runs its backward products through it too, over an operand internal/nn
// transposes, so there is no transposed-product kernel.
//
// The integer serving kernel relaxes the ordering constraint instead of
// fighting it: integer accumulation is exact and commutative, so it is
// free to unroll, retile, reorder and skip zeros while staying
// bit-identical to a naive scalar triple loop. There
// is one, MatMulInterleaved, and every integer layer at every width runs
// on it. Its right operand is int8 codes widened to int16 and interleaved
// along k (InterleaveKInto, the one writer of the layout): row pair P
// holds, for each column j, the pair (w[2P,j], w[2P+1,j]), an odd last row
// pairing with 0. A dense layer's weights are widened once, at build, and
// its activations sit on the left; a convolution keeps its weights on the
// left and widens each example's im2col columns into a workspace, so its
// product lands in NCHW order. Each row lists its code pairs that are not
// both zero, so a zero pair costs neither a multiply nor a branch, and the
// fold multiplies a pair by its row pair: on amd64 one SSE2 PMADDWD gives
// four columns' x_2P·w[2P,j] + x_2P+1·w[2P+1,j], the shape of the
// Cortex-M4's dual 16-bit MAC that CMSIS-NN widens int8 for. A pair sum
// cannot saturate for int8 codes, and the int32 tile is exact while
// k < 2^17. The Go fold of matmul_generic.go runs the same layout
// elsewhere and in a race build, as the float fold's does. MatMulInt8,
// MatMulInt4 and PackInt4Matrix (a canonical two-codes-per-byte encoding,
// low nibble first, zero pad) live on only for the benchmark harness's
// kernel probes: each widens its right operand per call and runs
// MatMulInterleaved. All kernel scratch lives on the caller's stack, so
// the serving hot loop allocates nothing.
//
// nonlinear.go holds the model path's activation kernels over slices —
// ReLU, Sigmoid, Tanh and SoftmaxRows — which nn's layers and procvm's
// opcodes both run, so exp and tanh are evaluated in one place.
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
