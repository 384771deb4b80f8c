// Package tinymlops is the public API of the TinyMLOps platform — a Go
// reproduction of "TinyMLOps: Operational Challenges for Widespread Edge
// AI Adoption" (Leroux et al., 2022).
//
// The package re-exports the platform facade and the parts of the
// subsystems a downstream user composes:
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
//
// What is exported here is computed, not curated: a name exists iff a
// non-test file under cmd/ or examples/, or a godoc example in
// example_test.go, references it, or the declared signature of such a name
// mentions it. cmd/tinymlops and every examples/ program import nothing but
// this package, so they are the proof that it is sufficient;
// TestFacadeIsLiveSurface fails on a name nobody calls. To export something
// new, call it from one of those places.
package tinymlops

import (
	"time"

	"tinymlops/internal/compat"
	"tinymlops/internal/core"
	"tinymlops/internal/dataset"
	"tinymlops/internal/device"
	"tinymlops/internal/faults"
	"tinymlops/internal/market"
	"tinymlops/internal/nn"
	"tinymlops/internal/offload"
	"tinymlops/internal/procvm"
	"tinymlops/internal/registry"
	"tinymlops/internal/rollout"
	"tinymlops/internal/selector"
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

// ErrQueryDenied is returned by Deployment.Infer when the prepaid meter is
// exhausted.
var ErrQueryDenied = core.ErrQueryDenied

// Staged OTA rollout types (§III-A: updatable deployments).

// RolloutConfig controls Platform.Rollout (waves, gate, seed, bake,
// monitor recalibration).
type RolloutConfig = core.RolloutConfig

// RolloutWave is one stage of a staged rollout: a name and the cumulative
// fleet fraction updated once the wave completes.
type RolloutWave = rollout.Wave

// RolloutGate sets the health thresholds a wave must clear (drift alarms,
// error rate, latency regression, update failures).
type RolloutGate = rollout.Gate

// Fault injection and fleet auditing (the chaos plane).

// ChaosConfig sets the deterministic per-round fault rates: network
// drops, latency spikes, battery death, mid-flash install crashes, churn,
// telemetry loss, and federated dropouts/stragglers.
type ChaosConfig = faults.ChaosConfig

// FaultProfile is the set of faults one device draws for one round — a
// pure function of (seed, round, device ID).
type FaultProfile = faults.FaultProfile

// NewFaultPlane returns a fault plane over the configuration: it derives
// and applies deterministic fault profiles to a fleet, and its FedFaults
// adapts them to a federated coordinator's fault hooks.
func NewFaultPlane(cfg ChaosConfig) *faults.Plane { return faults.New(cfg) }

// ChaosScenarioConfig configures the canned chaos experiment.
type ChaosScenarioConfig = faults.ScenarioConfig

// RunChaosScenario deploys v1, publishes v2, drives a staged rollout
// under the configured fault weather, reconciles the stragglers and
// audits every invariant. The result records the rollout, the fault
// accounting, the audit and the determinism fingerprint — bit-identical at
// any worker count.
func RunChaosScenario(cfg ChaosScenarioConfig) (*faults.ScenarioResult, error) {
	return faults.RunScenario(cfg)
}

// SwarmOptions configures Platform.NewSwarm (chunk size, seed, peer-drop
// weather): peer-to-peer OTA distribution of
// content-addressed chunks under a byte-conservation ledger. Pass the swarm
// to RolloutConfig.Swarm.
type SwarmOptions = core.SwarmOptions

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

// OffloadCloudConfig sizes the cloud tier (modeled hardware, batch
// coalescing limit, queue bound, dispatcher count).
type OffloadCloudConfig = offload.CloudConfig

// NewOffloadCloud returns the cloud half of the offload plane: a bounded,
// batched admission queue that coalesces concurrent suffix requests into
// single ForwardBatch calls with per-tenant fair scheduling. Call Start to
// begin serving and Close to drain and stop.
func NewOffloadCloud(cfg OffloadCloudConfig) *offload.CloudTier { return offload.NewCloud(cfg) }

// OffloadConfig controls Platform.Offload (cloud tier, RTT, shed retry
// policy, re-planning thresholds, optional pinned plan).
type OffloadConfig = core.OffloadConfig

// OffloadSession is a deployment serving queries through the split
// runtime — metering, drift monitoring and telemetry stay the
// deployment's own; only the forward pass moves.
type OffloadSession = core.OffloadSession

// Offload execution modes: the plan kept the query local, the split ran
// prefix-on-device / suffix-in-cloud, or a failed split fell back to full
// on-device execution.
const (
	OffloadLocal    = offload.ModeLocal
	OffloadSplit    = offload.ModeSplit
	OffloadFallback = offload.ModeFallback
)

// OffloadReplanConfig sets a session's planning round-trip time, or
// freezes its initial plan; the re-planning thresholds are fixed.
type OffloadReplanConfig = offload.ReplanConfig

// Portable protected execution: compat→procvm lowering, registry-first
// compiled artifacts and enclave-hosted trusted offload.

// ProcVMCompileOptions controls CompileProcVM (module name and lowering
// tolerance).
type ProcVMCompileOptions = compat.CompileOptions

// CompileProcVM lowers a trained network into a procvm module — the
// portable protected executable format of the capability-gated, gas-metered
// bytecode VM, whose canonical encoding (Module.Encode) is what the
// registry stores and deployments flash. Dropout is stripped, batchnorm
// folded, each layer instruction-selected onto the VM ISA, and the result
// is gate-checked bit-exact against the lowered network on every probe
// before anything is returned. The module's gas limit is pinned to its
// measured execution cost.
func CompileProcVM(net *Network, opts ProcVMCompileOptions) (*procvm.Module, error) {
	return compat.CompileProcVM(net, opts)
}

// ModelKindProcVM marks a registry version whose artifact is a compiled
// procvm module (registered via Registry.RegisterCompiled) rather than a
// plain serialized network.
const ModelKindProcVM = registry.KindProcVM

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

// OptimizationSpec configures automatic variant generation on publish.
type OptimizationSpec = registry.OptimizationSpec

// Selection types.

// SelectionPolicy constrains the choice of a variant for a device context:
// accuracy floor, latency bound, scheme and kind pins, battery awareness.
type SelectionPolicy = selector.Policy

// Fleet types.

// Fleet is a collection of simulated devices.
type Fleet = device.Fleet

// DeviceCapabilities describes a hardware profile.
type DeviceCapabilities = device.Capabilities

// NetState is a device's connectivity; set it with Device.SetNet.
type NetState = device.NetState

// Connectivity states, in increasing uplink bandwidth.
const (
	Offline  = device.Offline
	Cellular = device.Cellular
	WiFi     = device.WiFi
)

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

// DriftKind names a drift injection mode.
type DriftKind = dataset.DriftKind

// DriftMeanShift adds a constant offset to every feature from the onset.
const DriftMeanShift = dataset.DriftMeanShift

// NewDriftStream returns a stream that draws from base and injects the
// given distribution change from a fixed onset.
func NewDriftStream(rng *RNG, base *Dataset, onset int, kind DriftKind, magnitude float64) *dataset.DriftStream {
	return dataset.NewDriftStream(rng, base, onset, kind, magnitude)
}
