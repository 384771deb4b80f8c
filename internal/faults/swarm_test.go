package faults

import (
	"testing"
)

// swarmChaos is the fault weather the swarm property tests run under:
// the standard churn/flake/crash mix plus peer-drop weather, so fetchers
// lose their serving neighbors mid-chunk and must resume elsewhere.
func swarmChaos(seed uint64) ChaosConfig {
	return ChaosConfig{
		Seed:          seed,
		PChurn:        0.05,
		PDrop:         0.10,
		PSpike:        0.10,
		PBatteryDeath: 0.02,
		PCrash:        0.20,
		PPeerDrop:     0.15,
	}
}

// checkSwarmScenario asserts the invariants every swarm scenario must
// satisfy regardless of scale: full convergence, a clean deep audit that
// covered the swarm ledger, byte conservation, peers actually carrying
// load, and the canary wave being the only wave fully funded by the
// registry.
func checkSwarmScenario(t *testing.T, res *ScenarioResult, workers int) {
	t.Helper()
	if res.Converged != res.FleetSize {
		t.Fatalf("workers=%d: converged %d/%d", workers, res.Converged, res.FleetSize)
	}
	if !res.Audit.OK() {
		t.Fatalf("workers=%d: audit violations: %v", workers, res.Audit.Violations)
	}
	if !res.Audit.SwarmChecked {
		t.Fatalf("workers=%d: audit never inspected the swarm ledger", workers)
	}
	if res.Audit.ArtifactsVerified != res.FleetSize {
		t.Fatalf("workers=%d: only %d/%d deployments bit-exact vs the registry",
			workers, res.Audit.ArtifactsVerified, res.FleetSize)
	}
	if res.Swarm == nil {
		t.Fatalf("workers=%d: swarm scenario produced no swarm report", workers)
	}
	st := res.Swarm.Stats
	if st.RegistryEgressBytes+st.PeerBytes != st.DeliveredBytes {
		t.Fatalf("workers=%d: conservation broken: registry %d + peers %d != delivered %d",
			workers, st.RegistryEgressBytes, st.PeerBytes, st.DeliveredBytes)
	}
	if st.ConservationViolations != 0 || st.HashRejects != 0 {
		t.Fatalf("workers=%d: %d conservation violations, %d hash rejects",
			workers, st.ConservationViolations, st.HashRejects)
	}
	if st.PeerBytes == 0 {
		t.Fatalf("workers=%d: no bytes moved peer-to-peer", workers)
	}
	if st.RegistryEgressBytes >= st.DeliveredBytes {
		t.Fatalf("workers=%d: registry paid every byte (%d of %d) — the swarm is idle",
			workers, st.RegistryEgressBytes, st.DeliveredBytes)
	}
	// The chunk-level fault machinery must actually have fired and healed.
	if st.Resumed == 0 {
		t.Fatalf("workers=%d: no transfer resumed under %.0f%% crash weather",
			workers, 100*swarmChaos(0).PCrash)
	}
	if st.MidChunkDrops == 0 {
		t.Fatalf("workers=%d: peer-drop weather never fired", workers)
	}
	// Per-wave economics: the canary wave is funded entirely by the
	// registry (there are no seeders yet); later waves lean on peers.
	if len(res.Swarm.WaveEgress) < 2 {
		t.Fatalf("workers=%d: %d waves recorded", workers, len(res.Swarm.WaveEgress))
	}
	w0 := res.Swarm.WaveEgress[0]
	if w0.RegistryBytes == 0 || w0.PeerBytes != 0 {
		t.Fatalf("workers=%d: canary wave split reg=%d peer=%d, want all registry",
			workers, w0.RegistryBytes, w0.PeerBytes)
	}
	var laterPeer int64
	for _, wb := range res.Swarm.WaveEgress[1:] {
		laterPeer += wb.PeerBytes
	}
	if laterPeer == 0 {
		t.Fatalf("workers=%d: post-canary waves moved no peer bytes", workers)
	}
}

// TestChaosSwarmRolloutDeterministic1k is the swarm property test: a
// 1k-device staged rollout where only the canary wave downloads from the
// registry and every later wave fetches hash-verified chunks from
// already-updated neighbors, under churn, mid-flash crashes and peer-drop
// weather. Both transfer modes run — delta-chunk (the head-only
// fine-tune's natural path) and full-artifact (ForceFull) — and in each
// mode every device must converge to a bit-identical artifact, the
// byte-conservation audit must be clean, and the outcome must be
// fingerprint-identical at 1, 4 and 16 workers.
func TestChaosSwarmRolloutDeterministic1k(t *testing.T) {
	for _, mode := range []struct {
		name      string
		forceFull bool
	}{
		{"delta-chunks", false},
		{"full-artifact", true},
	} {
		t.Run(mode.name, func(t *testing.T) {
			var first *ScenarioResult
			for _, workers := range []int{1, 4, 16} {
				res, err := RunScenario(ScenarioConfig{
					Devices: 1_000, Workers: workers, Seed: 7001,
					Chaos:        swarmChaos(7002),
					SwarmRollout: true,
					ForceFull:    mode.forceFull,
				})
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				checkSwarmScenario(t, res, workers)
				if mode.forceFull {
					if res.Rollout.FullTransfers == 0 || res.Rollout.DeltaTransfers != 0 {
						t.Fatalf("workers=%d: ForceFull shipped %d full / %d delta",
							workers, res.Rollout.FullTransfers, res.Rollout.DeltaTransfers)
					}
				} else if res.Rollout.DeltaTransfers == 0 {
					t.Fatalf("workers=%d: head-only update never shipped a delta", workers)
				}
				if first == nil {
					first = res
					st := res.Swarm.Stats
					t.Logf("1k swarm %s: fingerprint=%s delivered=%dB registry=%dB peers=%dB resumed=%d drops=%d",
						mode.name, res.Fingerprint, st.DeliveredBytes, st.RegistryEgressBytes,
						st.PeerBytes, st.Resumed, st.MidChunkDrops)
					continue
				}
				if res.Fingerprint != first.Fingerprint {
					t.Fatalf("workers=%d: fingerprint %s != workers=1's %s — swarm outcome depends on scheduling",
						workers, res.Fingerprint, first.Fingerprint)
				}
				if res.Swarm.Stats != first.Swarm.Stats {
					t.Fatalf("workers=%d: swarm ledger diverged:\n%+v\nvs\n%+v",
						workers, res.Swarm.Stats, first.Swarm.Stats)
				}
			}
		})
	}
}

// TestChaosSwarmInstallEquivalentToRegistryDirect is the install-
// equivalence property: the same scenario run registry-direct and run
// over the swarm must converge every device onto artifacts that are
// bit-identical to the registry's canonical bytes — the deep audit's
// ArtifactsVerified re-derives each deployment from the registry and
// compares byte-for-byte, so full verification on both sides proves the
// two transports installed the same bits. The swarm run must additionally
// move most of those bytes off the registry.
func TestChaosSwarmInstallEquivalentToRegistryDirect(t *testing.T) {
	base := ScenarioConfig{
		Devices: 120, Seed: 7101, Chaos: swarmChaos(7102),
	}

	direct, err := RunScenario(base)
	if err != nil {
		t.Fatalf("registry-direct: %v", err)
	}
	swarmed := base
	swarmed.SwarmRollout = true
	via, err := RunScenario(swarmed)
	if err != nil {
		t.Fatalf("swarm: %v", err)
	}

	for _, res := range []*ScenarioResult{direct, via} {
		if res.Converged != res.FleetSize || !res.Audit.OK() {
			t.Fatalf("converged %d/%d, audit %v", res.Converged, res.FleetSize, res.Audit.Violations)
		}
		if res.Audit.ArtifactsVerified != res.FleetSize {
			t.Fatalf("%d/%d deployments bit-exact vs the registry",
				res.Audit.ArtifactsVerified, res.FleetSize)
		}
	}
	if direct.V2.ID != via.V2.ID || direct.V2.Digest != via.V2.Digest {
		t.Fatalf("the two transports rolled out different artifacts: %s vs %s",
			direct.V2.ID, via.V2.ID)
	}
	if direct.Swarm != nil {
		t.Fatal("registry-direct run produced a swarm report")
	}
	st := via.Swarm.Stats
	if st.PeerBytes == 0 || st.RegistryEgressBytes >= st.DeliveredBytes {
		t.Fatalf("swarm run moved nothing peer-to-peer: %+v", st)
	}
}

// TestChaosSwarmRollout10kBitIdenticalAcrossWorkerCounts is the headline
// acceptance scenario for swarm distribution: a 10k-device rollout under
// the full fault weather converges with zero audit violations while the
// registry funds only the canary wave (plus last-resort chunks), and the
// outcome — including the complete swarm byte ledger — is bit-identical
// at 1, 4 and 16 workers. Under -short (the CI race step) the same
// assertions run over 300 devices.
func TestChaosSwarmRollout10kBitIdenticalAcrossWorkerCounts(t *testing.T) {
	devices := 10_000
	if testing.Short() {
		devices = 300
	}
	var first *ScenarioResult
	for _, workers := range []int{1, 4, 16} {
		res, err := RunScenario(ScenarioConfig{
			Devices: devices, Workers: workers, Seed: 7201,
			Chaos:        swarmChaos(7202),
			SwarmRollout: true,
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		checkSwarmScenario(t, res, workers)
		st := res.Swarm.Stats
		// At fleet scale the registry's share must be a small minority:
		// the swarm, not the vendor, carries the fleet.
		if st.RegistryEgressBytes*4 > st.DeliveredBytes {
			t.Fatalf("workers=%d: registry paid %d of %d delivered bytes — peers should carry >75%%",
				workers, st.RegistryEgressBytes, st.DeliveredBytes)
		}
		if first == nil {
			first = res
			t.Logf("%d-device swarm: fingerprint=%s delivered=%dB registry=%dB (%.1f%%) peers=%dB resumed=%d",
				devices, res.Fingerprint, st.DeliveredBytes, st.RegistryEgressBytes,
				100*float64(st.RegistryEgressBytes)/float64(st.DeliveredBytes),
				st.PeerBytes, st.Resumed)
			continue
		}
		if res.Fingerprint != first.Fingerprint {
			t.Fatalf("workers=%d: fingerprint %s != workers=1's %s",
				workers, res.Fingerprint, first.Fingerprint)
		}
	}
}
