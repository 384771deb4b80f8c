// Package procvm is the portable pre/post-processing sandbox of §IV: a
// tiny stack-based virtual machine whose modules (windowing, scaling,
// spectral features, thresholding, argmax) travel with a model version
// through the registry and run identically on every device class — the
// answer to processing pipelines being even less portable than the
// models they wrap, and the reproduction's stand-in for the WebAssembly
// modules the paper points at (§III-A, ref [24], the hotg.ai Rune
// container). Experiment E7 contrasts the dense portability of modules
// with the sparse native-op support matrix.
//
// An instruction is one row of the table in ops.go — mnemonic, what each
// operand is, values popped and pushed, gas per element — and one arm of
// the switch in Runtime.Run. Validate and Run read code through the same
// decoder and apply the same operand check; Validate adds the stack-depth
// simulation, Run what needs live values. Modules are built with a
// Builder that ends in Validate, serialized in a versioned binary format
// whose decoder ends in Validate too, and executed under a capability
// gate: an owner grants CapSensor/CapNetwork-style permissions per
// runtime, so a marketplace host can run a stranger's pipeline without
// trusting it — the §IV orchestration story's sandbox requirement. A
// failure that depends on the data (a type, a length, gas) fails that
// query with a sentinel error, never the process. Run allocates only the
// values the ISA promises: its frame, value stack and decoded operands
// stay on its own stack.
//
// Gas is deterministic — a pure function of the code and the input's
// length — and is metered per instruction on the value on top of the stack
// before the instruction runs (see opInfo.gasPerElem for what that makes
// of pushv and clamp). Beyond hand-built pipelines, internal/compat
// compiles whole trained networks into modules — dense, convolution,
// pooling and activation instructions, the windowed ones over the
// tensor.Window and kernels the native layers run — making the VM a portable
// protected-execution target: a module's gas limit is pinned at compile
// time to its measured per-query cost, so a hosting runtime can meter a
// stranger's model without trusting its cost claims.
package procvm
