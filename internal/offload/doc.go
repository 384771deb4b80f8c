// Package offload executes the edge–cloud model splits that
// internal/market plans — the §IV story that fragmented edge hardware
// forces partitioned execution: run the first layers on-device, ship the
// boundary activation, finish in the cloud.
//
// The paper treats the cut point as an operational concern, so this
// package is a serving runtime, not a calculator. A Session owns one
// device's split: it charges prefix compute and radio to the device cost
// model (the query itself is metered upstream: core.OffloadSession.Infer
// runs the session inside the deployment's pay-per-query pipeline, so
// offloading never escapes it), serializes the boundary activation
// through its executor's codec, and — because the split performs the
// monolithic model's exact operations — answers bit-identically to a full
// on-device forward pass no matter where the cut lands or whether the
// network failed it back to the edge. A CloudTier is the vendor-side half: a
// bounded admission queue that coalesces concurrent suffix requests of
// the same (version, cut) class into single executor calls, drains
// tenants round-robin so no device starves, and sheds under overload —
// a shed query is submitted three times in all (shedAttempts), with no
// modeled delay between tries, and finishes locally if the cloud stays
// saturated. The tier's hardware is the wall-powered edge-server profile.
//
// A Replanner closes the loop: it watches live bandwidth and battery,
// re-runs market.BestSplit when conditions drift past its trigger
// thresholds, and moves the cut only for a predicted improvement —
// two-stage hysteresis, so the fault plane's weather migrates the cut
// without making it flap. The thresholds are the constants in replan.go
// (bandwidth ×2 or crossing zero, battery 0.25, a 0.15 gain to move, the
// energy objective below 0.1 battery); a ReplanConfig carries only the
// round-trip time and an off switch.
//
// Neither half knows a variant kind. Both run an exec.Executor — the
// session's built once from its SessionConfig, the tier's handed to
// Register — and the executor owns kernels, cut legality and wire format:
// float networks ship tensor-codec activations; integer-native models
// ship int8 codes plus a per-example scale (the strict QAB1 codec) and
// resume on the same integer kernels; an exec.Hosted executor serves a
// watermarked per-device copy or a compiled procvm module (all-local
// versus whole-module, cut 0) from inside an enclave, charging every
// query the protected world's slowdown.
package offload
