// Package tinymlops is the public API of the TinyMLOps platform — a Go
// reproduction of "TinyMLOps: Operational Challenges for Widespread Edge
// AI Adoption" (Leroux et al., 2022).
//
// The package re-exports the platform facade and the subsystems a
// downstream user composes:
//
//   - model training and serialization (the nn engine),
//   - the registry with its automatic optimization pipeline (§III-A),
//   - per-device variant selection and deployment over a simulated
//     heterogeneous fleet, serving integer variants through native
//     int8/int4 kernels on capable hardware (§III-A, §IV),
//   - on-device observability and store-and-forward telemetry (§III-B),
//   - offline pay-per-query metering with tamper-evident settlement
//     (§III-C),
//   - federated learning with update compression and personalization
//     (§III-D),
//   - model IP protection: encryption, watermarking, extraction defenses
//     (§V),
//   - verifiable execution via sum-check proofs (§VI).
//
// See examples/quickstart for the end-to-end flow.
package tinymlops

import (
	"time"

	"tinymlops/internal/compat"
	"tinymlops/internal/core"
	"tinymlops/internal/dataset"
	"tinymlops/internal/device"
	"tinymlops/internal/enclave"
	"tinymlops/internal/engine"
	"tinymlops/internal/faults"
	"tinymlops/internal/fed"
	"tinymlops/internal/market"
	"tinymlops/internal/nn"
	"tinymlops/internal/offload"
	"tinymlops/internal/procvm"
	"tinymlops/internal/registry"
	"tinymlops/internal/rollout"
	"tinymlops/internal/selector"
	"tinymlops/internal/swarm"
	"tinymlops/internal/tensor"
)

// Platform is the TinyMLOps control plane over a simulated device fleet.
type Platform = core.Platform

// PlatformConfig provisions a Platform (vendor key, seed, telemetry
// anonymity floor).
type PlatformConfig = core.Config

// Deployment is one model live on one device: metering gate, drift
// monitor, telemetry buffer and pipeline modules included.
type Deployment = core.Deployment

// DeployConfig controls selection policy, prepaid quota, drift
// calibration, watermarking and pipeline modules for one deployment.
type DeployConfig = core.DeployConfig

// InferenceResult is one query's outcome on a deployment.
type InferenceResult = core.InferenceResult

// ErrQueryDenied is returned by Deployment.Infer when the prepaid meter is
// exhausted.
var ErrQueryDenied = core.ErrQueryDenied

// BatchOutcome is one query's outcome within Deployment.InferBatch.
type BatchOutcome = core.BatchOutcome

// Staged OTA rollout types (§III-A: updatable deployments).

// UpdateOptions controls one Deployment.Update (monitor recalibration,
// full-vs-delta transfer).
type UpdateOptions = core.UpdateOptions

// UpdateReport accounts one update or rollback: versions moved, bytes
// shipped and flashed, delta sparsity.
type UpdateReport = core.UpdateReport

// RolloutConfig controls Platform.Rollout (waves, gate, seed, bake,
// monitor recalibration).
type RolloutConfig = core.RolloutConfig

// RolloutWave is one stage of a staged rollout: a name and the cumulative
// fleet fraction updated once the wave completes.
type RolloutWave = rollout.Wave

// RolloutGate sets the health thresholds a wave must clear (drift alarms,
// error rate, latency regression, update failures).
type RolloutGate = rollout.Gate

// RolloutResult is the whole rollout's record: per-wave outcomes, gate
// decisions, rollbacks and transfer accounting.
type RolloutResult = rollout.Result

// WaveResult is one wave's record within a RolloutResult.
type WaveResult = rollout.WaveResult

// GateDecision is the health gate's verdict over one wave.
type GateDecision = rollout.GateDecision

// DeviceHealth is a deployment's telemetry summary over its live window —
// what rollout gates compare before and after an update.
type DeviceHealth = rollout.Health

// DefaultRolloutWaves returns the canary → cohort → fleet progression.
func DefaultRolloutWaves() []RolloutWave { return rollout.DefaultWaves() }

// Weight-delta codec (sparse same-topology OTA patches).

// ModelDeltaCost is the modeled transfer/flash footprint of a delta at a
// given weight precision.
type ModelDeltaCost = nn.DeltaCost

// EncodeModelDelta computes the sparse weight delta that upgrades oldNet
// to newNet (same topology required); applying it reproduces newNet
// bit-exactly.
func EncodeModelDelta(oldNet, newNet *Network) ([]byte, error) {
	return nn.EncodeDelta(oldNet, newNet)
}

// ApplyModelDelta returns a new network equal to oldNet patched by delta.
func ApplyModelDelta(oldNet *Network, delta []byte) (*Network, error) {
	return nn.ApplyDelta(oldNet, delta)
}

// CostOfModelDelta parses an encoded delta and returns its modeled cost at
// the given weight bit width (≤ 0 means 32).
func CostOfModelDelta(delta []byte, bits int) (ModelDeltaCost, error) {
	return nn.CostOfDelta(delta, bits)
}

// Fault injection and fleet auditing (the chaos plane).

// ChaosConfig sets the deterministic per-round fault rates: network
// drops, latency spikes, battery death, mid-flash install crashes, churn,
// telemetry loss, and federated dropouts/stragglers.
type ChaosConfig = faults.ChaosConfig

// FaultProfile is the set of faults one device draws for one round — a
// pure function of (seed, round, device ID).
type FaultProfile = faults.FaultProfile

// FaultPlane derives and applies deterministic fault profiles to a fleet.
type FaultPlane = faults.Plane

// NewFaultPlane returns a fault plane over the configuration.
func NewFaultPlane(cfg ChaosConfig) *FaultPlane { return faults.New(cfg) }

// AuditConfig controls one fleet invariant audit.
type AuditConfig = faults.AuditConfig

// AuditReport is the fleet-wide invariant audit result: meter
// conservation, slot/version convergence, telemetry monotonicity, and
// partial-install detection.
type AuditReport = faults.AuditReport

// AuditPlatform checks a platform's fleet against the invariants a chaos
// run must not break.
func AuditPlatform(p *Platform, cfg AuditConfig) *AuditReport { return faults.Audit(p, cfg) }

// ChaosScenarioConfig configures the canned chaos experiment.
type ChaosScenarioConfig = faults.ScenarioConfig

// ChaosScenarioResult records one chaos experiment: rollout record, fault
// accounting, audit, and the determinism fingerprint.
type ChaosScenarioResult = faults.ScenarioResult

// RunChaosScenario deploys v1, publishes v2, drives a staged rollout
// under the configured fault weather, reconciles the stragglers and
// audits every invariant. Bit-identical at any worker count.
func RunChaosScenario(cfg ChaosScenarioConfig) (*ChaosScenarioResult, error) {
	return faults.RunScenario(cfg)
}

// ClientFault is one federated client's injected failure for a round
// (dropout or straggler); see FedConfig's Faults hook.
type ClientFault = fed.ClientFault

// Peer-to-peer OTA swarm distribution (content-addressed chunks with a
// byte-conservation ledger; see internal/swarm).

// Swarm coordinates peer-to-peer artifact distribution: wave-N devices
// that hold a version serve hash-verified chunks to wave-N+1 fetchers,
// with the registry seeding only the canary wave and acting as source of
// last resort. Build one with Platform.NewSwarm and pass it to
// RolloutConfig.Swarm or UpdateOptions.Swarm.
type Swarm = swarm.Swarm

// SwarmOptions configures Platform.NewSwarm (chunk size, seed, peer-drop
// weather, per-chunk retry budget).
type SwarmOptions = core.SwarmOptions

// SwarmStats is the swarm's cumulative transfer ledger; its byte
// conservation invariant (registry egress + peer bytes == delivered
// bytes) is checked by the fleet audit.
type SwarmStats = swarm.Stats

// SwarmTransferStats accounts one completed swarm transfer.
type SwarmTransferStats = swarm.TransferStats

// SwarmDropFunc injects deterministic peer loss into a swarm: called per
// (wave, attempt, fetcher, peer, key, chunk), it returns 0 for no drop, a
// fraction in (0,1) for a mid-chunk loss at that point, or ≥1 for a drop
// before the first byte.
type SwarmDropFunc = swarm.DropFunc

// SwarmReport is a chaos scenario's swarm record: the cumulative ledger
// plus each wave's registry/peer egress split.
type SwarmReport = faults.SwarmReport

// SwarmWaveBytes is one rollout wave's radio-byte split by source.
type SwarmWaveBytes = faults.WaveBytes

// ChunkManifest splits an artifact into fixed-size content-addressed
// chunks: per-chunk SHA-256 hashes plus a whole-artifact digest, with a
// canonical binary codec.
type ChunkManifest = swarm.Manifest

// ChunkReassembler collects verified chunks and assembles the artifact
// bit-exactly.
type ChunkReassembler = swarm.Reassembler

// BuildChunkManifest chunks data under key (chunkBytes ≤ 0 uses the 4 KiB
// default).
func BuildChunkManifest(key string, data []byte, chunkBytes int64) (*ChunkManifest, error) {
	return swarm.BuildManifest(key, data, chunkBytes)
}

// UnmarshalChunkManifest decodes a canonical manifest; any decodable
// input re-encodes to exactly the same bytes.
func UnmarshalChunkManifest(data []byte) (*ChunkManifest, error) {
	return swarm.UnmarshalManifest(data)
}

// NewChunkReassembler returns an empty reassembler for the manifest.
func NewChunkReassembler(m *ChunkManifest) *ChunkReassembler { return swarm.NewReassembler(m) }

// Typed swarm chunk errors: every rejection is classifiable.
var (
	// ErrBadManifest is returned for malformed or non-canonical manifest
	// encodings.
	ErrBadManifest = swarm.ErrBadManifest
	// ErrChunkHashMismatch is returned when a chunk's bytes fail its
	// manifest hash.
	ErrChunkHashMismatch = swarm.ErrChunkHashMismatch
	// ErrDuplicateChunk is returned when a chunk index is added twice —
	// every byte is downloaded exactly once.
	ErrDuplicateChunk = swarm.ErrDuplicateChunk
)

// ErrDeltaBaseMissing is set as UpdateReport.DeltaFallback when a
// delta-eligible update found the running version's artifact evicted from
// the registry and fell back to a full-artifact transfer.
var ErrDeltaBaseMissing = core.ErrDeltaBaseMissing

// ErrArtifactMissing is wrapped by registry loads of evicted or unknown
// version artifacts.
var ErrArtifactMissing = registry.ErrArtifactMissing

// Edge–cloud offload plane (§IV: partitioned execution, live).

// LayerCost is one layer's static cost summary (MACs, activation size) —
// what split planning consumes; see Network.Summary.
type LayerCost = nn.LayerCost

// SplitPlan describes running layers [0,Cut) on the device and [Cut,n) in
// the cloud, with the latency decomposition that justified the cut.
type SplitPlan = market.SplitPlan

// BestSplit finds the layer cut minimizing end-to-end latency for the
// given device/cloud pair, uplink bandwidth (bytes/second; 0 forces the
// full-edge plan), round-trip time and raw input size. It returns the
// best plan and the full per-cut curve.
func BestSplit(costs []LayerCost, dev, cloud DeviceCapabilities, bits int, bandwidthBps float64, rtt time.Duration, inputBytes int64) (SplitPlan, []SplitPlan, error) {
	return market.BestSplit(costs, dev, cloud, bits, bandwidthBps, rtt, inputBytes)
}

// OffloadCloud is the cloud half of the offload plane: a bounded, batched
// admission queue that coalesces concurrent suffix requests into single
// ForwardBatch calls with per-tenant fair scheduling.
type OffloadCloud = offload.CloudTier

// OffloadCloudConfig sizes an OffloadCloud (modeled hardware, batch
// coalescing limit, queue bound, dispatcher count).
type OffloadCloudConfig = offload.CloudConfig

// OffloadCloudStats aggregates a tier's serving counters (submitted,
// served, shed, batches, high-water marks).
type OffloadCloudStats = offload.CloudStats

// NewOffloadCloud returns a cloud tier; call Start to begin serving and
// Close to drain and stop.
func NewOffloadCloud(cfg OffloadCloudConfig) *OffloadCloud { return offload.NewCloud(cfg) }

// OffloadConfig controls Platform.Offload (cloud tier, RTT, shed retry
// policy, re-planning thresholds, optional pinned plan).
type OffloadConfig = core.OffloadConfig

// OffloadSession is a deployment serving queries through the split
// runtime — metering, drift monitoring and telemetry stay the
// deployment's own; only the forward pass moves.
type OffloadSession = core.OffloadSession

// OffloadOutcome is one offloaded query's result: the deployment-level
// view plus the split execution detail.
type OffloadOutcome = core.OffloadOutcome

// OffloadResult is the split runtime's per-query record (mode, cut,
// boundary bytes, energy, cloud batch).
type OffloadResult = offload.Result

// OffloadMode records how an offloaded query executed.
type OffloadMode = offload.Mode

// Offload execution modes: the plan kept the query local, the split ran
// prefix-on-device / suffix-in-cloud, or a failed split fell back to full
// on-device execution.
const (
	OffloadLocal    = offload.ModeLocal
	OffloadSplit    = offload.ModeSplit
	OffloadFallback = offload.ModeFallback
)

// OffloadStats aggregates a session's execution counters.
type OffloadStats = offload.Stats

// OffloadReplanConfig tunes when a session re-runs BestSplit and how
// reluctant it is to move the cut (two-stage hysteresis).
type OffloadReplanConfig = offload.ReplanConfig

// OffloadConditions is the live telemetry a replanner watches: uplink
// bandwidth, battery fraction, cloud queue depth.
type OffloadConditions = offload.Conditions

// OffloadReport is the chaos scenario's offload-phase record.
type OffloadReport = faults.OffloadReport

// ErrOffloadShed is returned by OffloadCloud.Submit when the bounded
// admission queue is full; sessions retry it on the deterministic backoff
// schedule and fall back to local execution if it persists.
var ErrOffloadShed = offload.ErrShed

// ErrOffloadStale is returned after an OTA update invalidates an offload
// session; open a new session against the updated deployment.
var ErrOffloadStale = core.ErrOffloadStale

// Portable protected execution: compat→procvm lowering, registry-first
// compiled artifacts and enclave-hosted trusted offload.

// ProcVMModule is a compiled processing pipeline for the capability-gated,
// gas-metered bytecode VM — the portable protected executable format. The
// canonical encoding (Module.Encode / DecodeProcVMModule) is what the
// registry stores and deployments flash.
type ProcVMModule = procvm.Module

// ProcVMRuntime executes modules under a capability grant and a gas
// budget.
type ProcVMRuntime = procvm.Runtime

// ProcVMCapability is a bitmask of host resources a module requires and a
// runtime grants.
type ProcVMCapability = procvm.Capability

// Procvm capability flags.
const (
	ProcVMCapNone    = procvm.CapNone
	ProcVMCapSensor  = procvm.CapSensor
	ProcVMCapNetwork = procvm.CapNetwork
	ProcVMCapStorage = procvm.CapStorage
)

// ErrProcVMOutOfGas is returned when execution exhausts the runtime's gas
// budget; ErrProcVMCapabilityDenied when the host grant does not cover the
// module's manifest.
var (
	ErrProcVMOutOfGas         = procvm.ErrOutOfGas
	ErrProcVMCapabilityDenied = procvm.ErrCapabilityDenied
)

// NewProcVMRuntime returns a runtime granting the given capabilities.
func NewProcVMRuntime(granted ProcVMCapability) *ProcVMRuntime { return procvm.NewRuntime(granted) }

// DecodeProcVMModule parses a canonical module encoding, rejecting any
// truncated, trailing or malformed input.
func DecodeProcVMModule(data []byte) (*ProcVMModule, error) { return procvm.DecodeModule(data) }

// ProcVMCompileOptions controls CompileProcVM (module name, capability
// manifest, verification probes and lowering tolerance).
type ProcVMCompileOptions = compat.CompileOptions

// CompileProcVM lowers a trained network into a procvm module: dropout is
// stripped, batchnorm folded, each layer instruction-selected onto the VM
// ISA, and the result is gate-checked bit-exact against the lowered
// network on every probe before anything is returned. The module's gas
// limit is pinned to its measured execution cost.
func CompileProcVM(net *Network, opts ProcVMCompileOptions) (*ProcVMModule, error) {
	return compat.CompileProcVM(net, opts)
}

// Artifact kinds in the registry's lineage DAG: plain serialized networks
// (the default) and compiled procvm modules registered as first-class
// variants via Registry.RegisterCompiled.
const (
	ModelKindNetwork = registry.KindNetwork
	ModelKindProcVM  = registry.KindProcVM
)

// EnclaveSession hosts protected suffix execution on the cloud tier:
// sealed artifacts (networks and compiled modules) are loaded, measured
// and attested, then served to offload sessions without the plaintext
// ever leaving the enclave. Build the Enclave itself with NewEnclave
// (protect.go) and verify reports with VerifyAttestation. Pass a session
// through OffloadConfig.Enclave, or leave it nil and the platform
// provisions a shared cloud enclave from the vendor key on first use.
type EnclaveSession = enclave.Session

// EnclaveReport is a keyed attestation over (enclave, measurement,
// nonce); verify it against the manufacturer root with VerifyAttestation.
type EnclaveReport = enclave.Report

// NewEnclaveSession opens a protected-execution session on an enclave.
func NewEnclaveSession(e *Enclave) *EnclaveSession { return enclave.NewSession(e) }

// TransientUpdateError reports whether an update failure is worth
// retrying: the device was offline, or the install crashed mid-flash and
// left a resumable slot.
func TransientUpdateError(err error) bool { return core.TransientUpdateError(err) }

// ErrDeviceOffline is wrapped by transfer failures on disconnected
// devices.
var ErrDeviceOffline = device.ErrOffline

// ErrInstallInterrupted is wrapped by installs that crashed mid-flash;
// retrying the same image resumes the half-written slot.
var ErrInstallInterrupted = device.ErrInstallInterrupted

// Execution engine types.

// RetryPolicy bounds retries of transient faults on a deterministic
// exponential backoff schedule.
type RetryPolicy = engine.RetryPolicy

// RetryResult accounts one retried operation (attempts, total backoff).
type RetryResult = engine.RetryResult

// Retry runs fn under the policy, consulting retryable (nil = retry all)
// between attempts.
func Retry(p RetryPolicy, retryable func(error) bool, fn func(attempt int) error) (RetryResult, error) {
	return engine.Retry(p, retryable, fn)
}

// SeedForID derives an independent seed for a string-keyed entity in a
// round — the ID-keyed sibling of the engine's positional derivation.
func SeedForID(root, round uint64, id string) uint64 { return engine.SeedForID(root, round, id) }

// Engine is the bounded worker pool behind all parallel fleet operations.
type Engine = engine.Engine

// EngineConfig sizes an Engine (Workers ≤ 0 means all cores).
type EngineConfig = engine.Config

// NewEngine returns a worker pool with cfg.Workers workers.
func NewEngine(cfg EngineConfig) *Engine { return engine.New(cfg) }

// DefaultEngine returns a worker pool sized to the machine.
func DefaultEngine() *Engine { return engine.Default() }

// FleetRunner drives a Fleet through deterministic, parallel simulation
// rounds: same seed ⇒ same results at any worker count.
type FleetRunner = engine.FleetRunner

// NewFleetRunner returns a runner over fleet on eng (nil eng = all cores).
func NewFleetRunner(eng *Engine, fleet *Fleet, seed uint64) *FleetRunner {
	return engine.NewFleetRunner(eng, fleet, seed)
}

// FleetResult pairs a device with its outcome for one fleet round.
type FleetResult[T any] struct {
	DeviceID string
	Value    T
	Err      error
}

// RunFleetRound executes work once per device across the runner's pool and
// returns the results in fleet insertion order. The rng handed to work is
// derived from (seed, round, device index) and must be its only source of
// randomness, which keeps rounds reproducible at any worker count.
func RunFleetRound[T any](r *FleetRunner, work func(d *Device, rng *RNG) (T, error)) []FleetResult[T] {
	res := engine.RunRound(r, func(d *device.Device, rng *tensor.RNG) (T, error) {
		return work(d, rng)
	})
	out := make([]FleetResult[T], len(res))
	for i, v := range res {
		out[i] = FleetResult[T]{DeviceID: v.DeviceID, Value: v.Value, Err: v.Err}
	}
	return out
}

// NewPlatform creates a platform over a device fleet.
func NewPlatform(fleet *Fleet, cfg PlatformConfig) (*Platform, error) {
	return core.New(fleet, cfg)
}

// DefaultOptimizationSpec derives int8/int4/ternary/binary variants
// evaluated on eval — the standard §III-A optimization pipeline.
func DefaultOptimizationSpec(eval *Dataset) OptimizationSpec {
	return core.DefaultOptimizationSpec(eval)
}

// Registry types.

// Registry is the content-addressed model store with lineage tracking.
type Registry = registry.Registry

// ModelVersion is one node of the registry's lineage DAG.
type ModelVersion = registry.ModelVersion

// OptimizationSpec configures automatic variant generation on publish.
type OptimizationSpec = registry.OptimizationSpec

// Selection types.

// SelectionPolicy weighs accuracy, latency, download and energy when
// choosing a variant for a device context.
type SelectionPolicy = selector.Policy

// DefaultSelectionPolicy returns the weights used across the experiments.
func DefaultSelectionPolicy() SelectionPolicy { return selector.DefaultPolicy() }

// Select picks the best feasible model variant for one device.
func Select(dev *Device, candidates []*ModelVersion, policy SelectionPolicy) (selector.Decision, error) {
	return selector.Select(dev, candidates, policy)
}

// Fleet types.

// Device is one simulated edge node (capabilities, battery, connectivity,
// usage counters).
type Device = device.Device

// Fleet is a collection of simulated devices.
type Fleet = device.Fleet

// DeviceCapabilities describes a hardware profile.
type DeviceCapabilities = device.Capabilities

// FleetSpec configures NewStandardFleet.
type FleetSpec = device.FleetSpec

// NewStandardFleet builds a heterogeneous fleet with CountPerProfile
// devices of each of the six standard profiles.
func NewStandardFleet(spec FleetSpec) (*Fleet, error) { return device.NewStandardFleet(spec) }

// StandardProfiles returns the six reference device profiles.
func StandardProfiles() []DeviceCapabilities { return device.StandardProfiles() }

// ProfileByName returns a standard profile by name
// ("m0-sensor", "m4-wearable", "m7-camera", "npu-board", "phone",
// "edge-gateway").
func ProfileByName(name string) (DeviceCapabilities, error) { return device.ProfileByName(name) }

// Dataset types.

// Dataset is a labeled collection of fixed-shape examples.
type Dataset = dataset.Dataset

// Blobs generates the linearly separable Gaussian-cluster task.
func Blobs(rng *RNG, n, features, classes int, sep float32) *Dataset {
	return dataset.Blobs(rng, n, features, classes, sep)
}

// Rings generates the concentric-ring task (not linearly separable).
func Rings(rng *RNG, n, classes int, noise float32) *Dataset {
	return dataset.Rings(rng, n, classes, noise)
}

// ShapeImages generates single-channel images of four shape classes for
// convolutional models.
func ShapeImages(rng *RNG, n, size int, noise float32) *Dataset {
	return dataset.ShapeImages(rng, n, size, noise)
}

// KeywordSeq generates keyword-spotting-like waveforms; pitchShift
// emulates speaker variability for personalization studies.
func KeywordSeq(rng *RNG, n, seqLen, classes int, noise, pitchShift float32) *Dataset {
	return dataset.KeywordSeq(rng, n, seqLen, classes, noise, pitchShift)
}

// VibrationAnomaly generates machine-vibration windows for predictive
// maintenance; machineID gives each machine its own signature.
func VibrationAnomaly(rng *RNG, n, window int, anomalyFrac float64, machineID int) *Dataset {
	return dataset.VibrationAnomaly(rng, n, window, anomalyFrac, machineID)
}

// PartitionDirichlet shards a dataset with label skew controlled by alpha
// (small alpha = pathological non-IID).
func PartitionDirichlet(rng *RNG, ds *Dataset, k int, alpha float64) [][]int {
	return dataset.PartitionDirichlet(rng, ds, k, alpha)
}

// PartitionIID shards a dataset uniformly.
func PartitionIID(rng *RNG, ds *Dataset, k int) [][]int {
	return dataset.PartitionIID(rng, ds, k)
}

// DriftStream draws from a base dataset and injects a distribution change
// at a fixed onset.
type DriftStream = dataset.DriftStream

// DriftKind names a drift injection mode.
type DriftKind = dataset.DriftKind

// Drift kinds for NewDriftStream.
const (
	DriftNone      = dataset.DriftNone
	DriftMeanShift = dataset.DriftMeanShift
	DriftRotate    = dataset.DriftRotate
	DriftScale     = dataset.DriftScale
)

// NewDriftStream returns a stream over base with the given drift schedule.
func NewDriftStream(rng *RNG, base *Dataset, onset int, kind DriftKind, magnitude float64) *DriftStream {
	return dataset.NewDriftStream(rng, base, onset, kind, magnitude)
}
