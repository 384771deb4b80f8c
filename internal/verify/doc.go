// Package verify implements the verifiable-execution layer of §VI: an
// untrusted edge device produces, next to each inference result, a short
// mathematical proof that the result came from the unmodified model; a
// cheap verifier (the payment authorizer, the cloud) checks the proof
// without re-executing the network.
//
// The construction follows SafetyNets/Thaler: the network's dense layers
// are lifted to exact arithmetic over the Mersenne prime field
// F_p (p = 2⁶¹−1) after int8 quantization, each matrix product is proven
// with the sum-check protocol for matrix multiplication (logarithmic
// rounds, O(m·k + k·n) verifier work versus O(m·n·k) re-execution),
// Fiat-Shamir makes it non-interactive, and the (cheap, O(n)) nonlinear
// layers are recomputed by the verifier directly — the same split Slalom
// makes. Freivalds' check is included as the randomized pre-screen.
//
// This package is the proof engine behind verifiable pay-per-query
// billing (metering, core): devices bind ProveMatMulPrepared proofs to
// sampled charges of their tamper-evident usage chain, the proofs ride
// in settlement reports as attestations, and the vendor's Settler checks
// them through a BatchVerifier — a shared Freivalds projection
// pre-screening each window, full sum-check verification fanned out over
// an engine worker pool. The economics mirror SafetyNets: producing a
// valid proof costs at least the inference it attests, so inflating tick
// counts stops paying.
//
// What is shared across proofs, and what must not be. A PreparedWeights
// holds the padded field encoding of a weight matrix B and its transcript
// digest; both depend on B alone, so one immutable value serves every
// proof and every verification against a model version, on either side.
// That is the only sharing that is sound for a prover. The point
// challenges r1 and r2 are drawn after the transcript has absorbed the
// digests of this proof's own A and C, and everything downstream of them
// — Ã(r1, ·), B̃(·, r2), the round polynomials — is per proof: a prover
// that reused r1/r2 (or a fold of B at a fixed r2) across charges would
// be proving at a point it knew before committing to C. The verifier may
// additionally share one Freivalds projection per class per batch
// (batch.go), because that challenge is drawn from a transcript binding
// every claim in the window.
//
// One kernel, dot, carries every long field inner product: the prover's
// matrix product, the fold B̃(·, r2) as dot products against the
// eq(r2, ·) table (no matrix copy), and both Freivalds projections. It
// accumulates in 128 bits and reduces once per 32 terms. The copying
// foldRows/foldCols remain for the short vectors and as the reference
// the kernel is tested against.
package verify
