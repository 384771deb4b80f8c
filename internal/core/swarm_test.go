package core

import (
	"testing"

	"tinymlops/internal/rollout"
	"tinymlops/internal/swarm"
)

// swarmFor builds a small-chunk swarm over the fixture's platform.
func (f *rolloutFixture) swarmFor(t *testing.T, seed uint64) *swarm.Swarm {
	t.Helper()
	sw, err := f.p.NewSwarm(SwarmOptions{ChunkBytes: 64, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return sw
}

// TestSwarmRolloutMatchesRegistryDirect is the equivalence property at
// platform scope: a swarm rollout must leave every device running the
// exact artifact a registry-direct rollout installs — same versions, bit-
// identical bytes (the deep-audit check runs in internal/faults; here the
// registry digest pins it) — while moving most bytes off the registry.
func TestSwarmRolloutMatchesRegistryDirect(t *testing.T) {
	direct := newRolloutFixture(t, 4)
	if _, err := direct.p.Rollout(direct.v2, RolloutConfig{Seed: 33, Calibration: direct.ds}); err != nil {
		t.Fatal(err)
	}

	viaSwarm := newRolloutFixture(t, 4)
	sw := viaSwarm.swarmFor(t, 77)
	res, err := viaSwarm.p.Rollout(viaSwarm.v2, RolloutConfig{Seed: 33, Calibration: viaSwarm.ds, Swarm: sw})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("swarm rollout did not complete")
	}

	dd, sd := direct.p.Deployments(), viaSwarm.p.Deployments()
	if len(dd) != len(sd) {
		t.Fatalf("deployment counts diverge: %d vs %d", len(dd), len(sd))
	}
	for i := range dd {
		if dd[i].DeviceID != sd[i].DeviceID || dd[i].Version.ID != sd[i].Version.ID {
			t.Fatalf("device %s converged to %s direct vs %s swarm",
				dd[i].DeviceID, dd[i].Version.ID, sd[i].Version.ID)
		}
		if dd[i].Version.Digest != sd[i].Version.Digest {
			t.Fatalf("device %s artifact digests diverge", dd[i].DeviceID)
		}
	}

	st := sw.Stats()
	if st.RegistryEgressBytes+st.PeerBytes != st.DeliveredBytes || st.ConservationViolations != 0 {
		t.Fatalf("byte conservation broken: %+v", st)
	}
	if st.PeerBytes == 0 {
		t.Fatal("no bytes moved peer-to-peer; later waves should fetch from the canary")
	}
	if res.TotalPeerBytes != st.PeerBytes || res.TotalRegistryBytes != st.RegistryEgressBytes {
		t.Fatalf("rollout accounting (%d/%d) diverges from the swarm ledger (%d/%d)",
			res.TotalPeerBytes, res.TotalRegistryBytes, st.PeerBytes, st.RegistryEgressBytes)
	}
	if sw.InFlight() != 0 {
		t.Fatalf("%d transfers still in flight after a completed rollout", sw.InFlight())
	}
}

// TestSwarmRegistryServesOnlyCanary pins the headline economics: with
// every transfer the same size, a wave that has seeders pays the registry
// nothing — only the canary wave (and chunks no peer can serve) hits it.
func TestSwarmRegistryServesOnlyCanary(t *testing.T) {
	f := newRolloutFixture(t, 2)
	sw := f.swarmFor(t, 5)
	res, err := f.p.Rollout(f.v2, RolloutConfig{
		Seed:        9,
		Calibration: f.ds,
		ForceFull:   true, // one artifact key, so every wave can peer-source
		Swarm:       sw,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Waves) < 2 {
		t.Fatalf("want ≥2 waves, got %d", len(res.Waves))
	}
	sumWave := func(w rollout.WaveResult) (reg, peer int64) {
		for _, o := range w.Outcomes {
			reg += o.Transfer.RegistryBytes
			peer += o.Transfer.PeerBytes
		}
		return reg, peer
	}
	reg0, peer0 := sumWave(res.Waves[0])
	if reg0 == 0 || peer0 != 0 {
		t.Fatalf("canary wave split reg=%d peer=%d, want all registry", reg0, peer0)
	}
	for i, w := range res.Waves[1:] {
		reg, peer := sumWave(w)
		if len(w.Outcomes) > 0 && peer == 0 {
			t.Fatalf("wave %d moved no peer bytes (reg=%d)", i+1, reg)
		}
		if reg != 0 {
			t.Fatalf("wave %d paid %d registry bytes with online seeders available", i+1, reg)
		}
	}
}

// TestSwarmUpdateUsesDeltaKey pins that same-topology swarm updates ship
// the delta artifact (its own swarm key), not the full image, and report
// the saving.
func TestSwarmUpdateUsesDeltaKey(t *testing.T) {
	f := newRolloutFixture(t, 2)
	sw := f.swarmFor(t, 21)
	deps := f.p.Deployments()
	rep, err := deps[0].Update(f.v2, UpdateOptions{Calibration: f.ds, Swarm: sw})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.UsedDelta {
		t.Fatal("same-topology swarm update did not ship a delta")
	}
	if full := int64(rep.To.Metrics.SizeBytes); rep.ShipBytes >= full {
		t.Fatalf("delta shipped %d of full %d: no saving", rep.ShipBytes, full)
	}
	// The updated device becomes a seeder for both keys from the next wave
	// on: a second device's delta and a third's full image come from it
	// alone, the delta at the size the first device shipped.
	sw.AdvanceWave()
	for i, full := range []bool{false, true} {
		got, err := deps[i+1].Update(f.v2, UpdateOptions{Calibration: f.ds, Swarm: sw, ForceFull: full})
		if err != nil {
			t.Fatal(err)
		}
		if got.UsedDelta == full || got.PeerBytes != got.ShipBytes || got.RegistryBytes != 0 {
			t.Fatalf("full=%v: delta %v, %d peer and %d registry bytes of %d, want all from %s",
				full, got.UsedDelta, got.PeerBytes, got.RegistryBytes, got.ShipBytes, deps[0].DeviceID)
		}
		if !full && got.ShipBytes != rep.ShipBytes {
			t.Fatalf("second delta shipped %d bytes, the first %d", got.ShipBytes, rep.ShipBytes)
		}
	}
}

// TestSwarmRollbackWithdrawsPendingSeeder pins that a rolled-back wave's
// devices do not seed bytes they no longer hold.
func TestSwarmRollbackWithdrawsPendingSeeder(t *testing.T) {
	f := newRolloutFixture(t, 2)
	sw := f.swarmFor(t, 29)
	tgt := &rolloutTarget{p: f.p, target: f.v2, cfg: RolloutConfig{Calibration: f.ds, Swarm: sw}}
	id := f.p.Deployments()[0].DeviceID
	if _, err := tgt.Update(id); err != nil {
		t.Fatal(err)
	}
	if err := tgt.Rollback(id); err != nil {
		t.Fatal(err)
	}
	sw.AdvanceWave()
	rep, err := f.p.Deployments()[1].Update(f.v2, UpdateOptions{Calibration: f.ds, Swarm: sw, ForceFull: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.PeerBytes != 0 || rep.RegistryBytes != rep.ShipBytes {
		t.Fatalf("rolled-back device still seeds: %d of %d bytes came from peers", rep.PeerBytes, rep.ShipBytes)
	}
}
