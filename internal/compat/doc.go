// Package compat addresses the fragmented-target problem of §IV: given a
// model version and a device's capabilities it reports whether the model
// can be deployed natively, which operators are missing, and whether its
// bit width needs (slow) emulation; it implements real lowering passes
// (dropout elimination, batch-norm folding) that vendors apply before
// deployment; and it defines a small versioned exchange format playing
// the role ONNX/NNEF play in the paper — including the failure mode the
// paper calls out, where models using unsupported ops simply cannot be
// interchanged.
//
// The paper's observation is that the edge has no CUDA: every vendor
// ships its own operator set, memory budget and precision support, so "it
// runs on my machine" means nothing fleet-wide. The compatibility report
// is what variant selection (internal/selector) consults before shipping,
// and the lowering passes are why a model that trains with dropout and
// batch norm can still land on an MCU whose runtime has neither.
//
// CompileProcVM closes the loop between lowering and portability: it
// lowers a trained network (dropout dropped, batch norm folded) into a
// procvm module — one instruction per layer, capability-gated, with a
// gas limit pinned to the measured per-query cost — and refuses to emit
// the module unless it reproduces the lowered network bit-for-bit on a
// fixed, seeded batch of four probe inputs. The compiled module is a first-class registry artifact
// kind: deployments serve it on the capability-gated runtime, and the
// offload tier can host it inside an enclave for trusted execution.
package compat
