package faults

import (
	"os"
	"strings"
	"testing"
)

// goldenFingerprint returns the scenario fingerprint testdata/fingerprints.golden
// pins under name: one "name fingerprint" pair per line.
func goldenFingerprint(t *testing.T, name string) string {
	t.Helper()
	data, err := os.ReadFile("testdata/fingerprints.golden")
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, " "); ok && k == name {
			return v
		}
	}
	t.Fatalf("testdata/fingerprints.golden has no %q line", name)
	return ""
}

// TestChaosRollout300BitIdenticalAcrossWorkerCounts runs the chaos headline
// at 300 devices and pins its fingerprint in testdata/fingerprints.golden,
// recorded at 6bdafb1: a behaviour change fails here as surely as a
// worker-count disagreement. TestChaosRollout10kHeadline runs the same
// assertions at 10 000 devices under the headline build tag.
func TestChaosRollout300BitIdenticalAcrossWorkerCounts(t *testing.T) {
	if got, want := checkChaosRollout(t, 300), goldenFingerprint(t, "chaos-rollout-300"); got != want {
		t.Fatalf("300-device chaos fingerprint %s, testdata/fingerprints.golden pins %s", got, want)
	}
}

// checkChaosRollout is the acceptance scenario: a staged rollout over the
// given number of devices under 5% churn, flaky networks, battery deaths
// and injected mid-flash crashes must converge to the new version on every
// device, pass the deep invariant audit with zero violations, and produce a
// bit-identical outcome at 1, 4 and 16 workers. It returns that outcome's
// fingerprint.
func checkChaosRollout(t *testing.T, devices int) string {
	chaos := ChaosConfig{
		Seed:           1002,
		PChurn:         0.05, // the headline churn
		PDrop:          0.10, // flaky network
		PSpike:         0.15,
		PBatteryDeath:  0.03,
		PCrash:         0.20, // mid-flash power loss per install attempt
		PTelemetryLoss: 0.10,
	}
	var first *ScenarioResult
	for _, workers := range []int{1, 4, 16} {
		res, err := RunScenario(ScenarioConfig{
			Devices: devices, Workers: workers, Seed: 1001, Chaos: chaos,
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if res.FleetSize < devices {
			t.Fatalf("fleet size %d < %d", res.FleetSize, devices)
		}
		if res.Converged != res.FleetSize {
			t.Fatalf("workers=%d: converged %d/%d", workers, res.Converged, res.FleetSize)
		}
		if !res.Audit.OK() {
			t.Fatalf("workers=%d: audit violations: %v", workers, res.Audit.Violations)
		}
		if res.Audit.ArtifactsVerified != res.FleetSize {
			t.Fatalf("workers=%d: only %d/%d deployments bit-exact vs the registry",
				workers, res.Audit.ArtifactsVerified, res.FleetSize)
		}
		if res.Audit.PartialInstalls != 0 {
			t.Fatalf("workers=%d: %d devices stuck mid-install", workers, res.Audit.PartialInstalls)
		}
		// The chaos must actually have happened — and been healed.
		if res.Crashes == 0 || res.RetriedUpdates == 0 {
			t.Fatalf("workers=%d: crashes=%d retried=%d — fault plane idle",
				workers, res.Crashes, res.RetriedUpdates)
		}
		if res.Rollout.DeltaTransfers == 0 {
			t.Fatalf("workers=%d: head-only update never shipped a delta", workers)
		}
		if res.ReconcileUpdated == 0 {
			t.Fatalf("workers=%d: no device needed reconciliation under 5%% churn", workers)
		}
		if res.TelemetryLost == 0 {
			t.Fatalf("workers=%d: no telemetry lost at 10%% loss rate", workers)
		}
		if o := res.Offload; o.Mismatches != 0 || o.Split == 0 || o.Local == 0 {
			t.Fatalf("workers=%d: offload phase %+v — want bit-exact split and local traffic", workers, o)
		}
		// The serving matrix must actually be mixed: the fleet rotates
		// through five policy cohorts — int8, int4 (packed kernels on
		// every device, emulated where the hardware lacks 4-bit MACs),
		// float32, watermarked and compiled procvm — and every one of
		// them, integer and protected variants included, serves split
		// traffic through the offload phase above.
		if res.IntServing == 0 || res.FloatServing == 0 {
			t.Fatalf("workers=%d: serving cohorts int=%d float=%d — want both", workers, res.IntServing, res.FloatServing)
		}
		if res.Int4Serving == 0 {
			t.Fatalf("workers=%d: int4 cohort produced no packed-int4 deployments", workers)
		}
		if res.Watermarked == 0 {
			t.Fatalf("workers=%d: watermarked cohort produced no marked deployments", workers)
		}
		if res.ProcVM == 0 {
			t.Fatalf("workers=%d: procvm cohort produced no compiled deployments", workers)
		}
		if first == nil {
			first = res
			t.Logf("%d-device chaos: fingerprint=%s crashes=%d attempts=%d retried=%d reconciled=%d telemetry_lost=%d",
				devices, res.Fingerprint, res.Crashes, res.InstallAttempts, res.RetriedUpdates,
				res.ReconcileUpdated, res.TelemetryLost)
			continue
		}
		if res.Fingerprint != first.Fingerprint {
			t.Fatalf("workers=%d: fingerprint %s != workers=1's %s — outcome depends on scheduling",
				workers, res.Fingerprint, first.Fingerprint)
		}
		if res.Crashes != first.Crashes || res.InstallAttempts != first.InstallAttempts {
			t.Fatalf("workers=%d: fault accounting diverged (crashes %d vs %d, attempts %d vs %d)",
				workers, res.Crashes, first.Crashes, res.InstallAttempts, first.InstallAttempts)
		}
	}
	return first.Fingerprint
}

// TestChaosOffloadPhaseDeterministicSmall is the small of the offload acceptance: a 120-device fleet serves split
// queries under weather at 1, 4 and 16 workers; every answer must be
// bit-exact, the audit must stay clean, and the fingerprint — which
// covers the offload tallies — must be identical across worker counts.
func TestChaosOffloadPhaseDeterministicSmall(t *testing.T) {
	chaos := ChaosConfig{
		Seed:          2002,
		PDrop:         0.25, // frequent outages migrate cuts to full-edge
		PSpike:        0.20,
		PBatteryDeath: 0.05,
	}
	var first *ScenarioResult
	for _, workers := range []int{1, 4, 16} {
		res, err := RunScenario(ScenarioConfig{
			Devices: 120, Workers: workers, Seed: 2001, Chaos: chaos,
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		o := res.Offload
		if o.Mismatches != 0 {
			t.Fatalf("workers=%d: %d non-bit-exact offloaded answers", workers, o.Mismatches)
		}
		if o.Split == 0 || o.Local == 0 {
			t.Fatalf("workers=%d: offload modes unexercised: %+v", workers, o)
		}
		if o.Replans == 0 {
			t.Fatalf("workers=%d: weather never moved a cut: %+v", workers, o)
		}
		if o.CloudServed != o.Split {
			t.Fatalf("workers=%d: cloud served %d vs %d splits", workers, o.CloudServed, o.Split)
		}
		if res.Int4Serving == 0 {
			t.Fatalf("workers=%d: int4 cohort produced no packed-int4 deployments", workers)
		}
		if !res.Audit.OK() {
			t.Fatalf("workers=%d: audit violations after offload phase: %v", workers, res.Audit.Violations)
		}
		if first == nil {
			first = res
			t.Logf("offload phase: queries=%d split=%d local=%d fallback=%d replans=%d errors=%d activation=%dB",
				o.Queries, o.Split, o.Local, o.Fallback, o.Replans, o.Errors, o.ActivationBytes)
			continue
		}
		if res.Fingerprint != first.Fingerprint {
			t.Fatalf("workers=%d: fingerprint %s != %s — offload outcome depends on scheduling",
				workers, res.Fingerprint, first.Fingerprint)
		}
	}
}

// TestChaosFedPhaseDeterministicSmall drives the hierarchical federated
// phase inside a small scenario at 1, 4 and 16 workers: a 24-device fleet
// converges a rollout, then a 48-client/4-aggregator fed fleet runs masked
// two-tier rounds under the same weather plane, publishes the aggregate
// into the model line, and the scenario fingerprint — which covers the fed
// tallies and the global-weight digest — must be identical across worker
// counts.
func TestChaosFedPhaseDeterministicSmall(t *testing.T) {
	chaos := ChaosConfig{
		Seed:            3002,
		PDrop:           0.10,
		PCrash:          0.15,
		PDropout:        0.20, // fed-client weather
		PStraggler:      0.25,
		StragglerFactor: 8, // past the phase's deadline: stragglers go late
	}
	var first *ScenarioResult
	for _, workers := range []int{1, 4, 16} {
		res, err := RunScenario(ScenarioConfig{
			Devices: 24, Workers: workers, Seed: 3001, Chaos: chaos,
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		f := res.Fed
		if f.Participants == 0 || f.Dropouts == 0 || f.Late == 0 {
			t.Fatalf("workers=%d: fed weather idle: %+v", workers, f)
		}
		if f.CloudUplinkBytes == 0 || f.CloudUplinkBytes >= f.EdgeUplinkBytes {
			t.Fatalf("workers=%d: cloud uplink %d vs edge %d — no fan-in saving",
				workers, f.CloudUplinkBytes, f.EdgeUplinkBytes)
		}
		if f.PublishedID == "" || f.Personalized != 4 {
			t.Fatalf("workers=%d: publish/personalize incomplete: %+v", workers, f)
		}
		if f.FinalAccuracy < 0.6 {
			t.Fatalf("workers=%d: fed global accuracy %v", workers, f.FinalAccuracy)
		}
		if !res.Audit.OK() {
			t.Fatalf("workers=%d: audit violations after fed phase: %v", workers, res.Audit.Violations)
		}
		if first == nil {
			first = res
			t.Logf("fed phase: clients=%d participants=%d dropouts=%d late=%d aggDrop=%d edgeUp=%dB cloudUp=%dB acc=%.3f digest=%s",
				f.Clients, f.Participants, f.Dropouts, f.Late, f.AggDropouts,
				f.EdgeUplinkBytes, f.CloudUplinkBytes, f.FinalAccuracy, f.GlobalDigest)
			continue
		}
		if res.Fingerprint != first.Fingerprint {
			t.Fatalf("workers=%d: fingerprint %s != %s — fed outcome depends on scheduling",
				workers, res.Fingerprint, first.Fingerprint)
		}
	}
}
