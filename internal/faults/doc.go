// Package faults is the deterministic fault-injection plane and the fleet
// invariant auditor for the TinyMLOps simulation.
//
// The paper's operational argument is that edge fleets are unreliable:
// devices go offline mid-update, flash writes get interrupted by power
// loss, networks are flaky, and federated clients straggle or drop out.
// A control plane that has only ever seen a well-behaved fleet proves
// nothing. This package supplies the adversity — and the machinery to
// prove the system survives it.
//
// # Fault plane
//
// Plane derives a FaultProfile for every (round, device) pair from the
// engine's seeded RNG derivation (engine.SeedForID), so a chaos run is a
// pure function of (seed, fleet, config): bit-identical at any worker
// count, reproducible from a one-line report. ApplyRound imposes the
// round's weather on the fleet (network drops and latency spikes, battery
// death, churn — a device that leaves misses this round and the next);
// Arm installs the per-attempt mid-flash crash injector behind
// device.InstallResumable; FedFaults adapts the same derivation to the
// federated coordinator's straggler/dropout hook.
//
// # Invariant auditor
//
// Audit walks a live core.Platform and checks the invariants that chaos
// must not break: meter conservation (issued == consumed + remaining, a
// verified tamper-evident chain, no voucher shared between deployments),
// slot/version convergence (every deployment runs a registry-known
// version whose bytes — for unwatermarked copies — are bit-identical to
// the stored artifact, even after interrupted-and-resumed delta installs),
// telemetry window monotonicity across buffered and ingested records, and
// no device left mid-install in a half-written staging slot.
//
// # Chaos scenario
//
// RunScenario is the canned end-to-end experiment behind the `tinymlops
// chaos` CLI subcommand and the acceptance tests: deploy v1 to a fleet,
// publish v2, drive a staged rollout under churn + flaky networks +
// injected mid-flash crashes with bounded deterministic retries, reconcile
// the stragglers, then audit. Its Fingerprint digests the terminal fleet
// state so tests can assert bit-identical outcomes across worker counts.
//
// What a ScenarioConfig does not carry is constant (scenario.go, audit.go):
// rollout.DefaultWaves(), four reconciliation sweeps, 1<<20 prepaid queries
// per device, 64-byte swarm chunks, and the first 64 violations listed.
package faults
