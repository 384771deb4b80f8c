package registry

import (
	"bytes"
	"sync"
	"testing"
)

// TestPlanSingleFlight: 64 goroutines racing for one move all get the one
// plan, worked out by one encoding, and it is the move's delta at the
// target's width.
func TestPlanSingleFlight(t *testing.T) {
	r, from, to := deltaFixture(t)
	const goroutines = 64
	plans := make([]*Move, goroutines)
	var start, done sync.WaitGroup
	start.Add(1)
	done.Add(goroutines)
	for g := range goroutines {
		go func() {
			defer done.Done()
			start.Wait()
			plans[g] = r.Plan(from, to)
		}()
	}
	start.Done()
	done.Wait()
	for g, m := range plans {
		if m != plans[0] {
			t.Fatalf("goroutine %d got a plan of its own", g)
		}
	}
	if n := r.deltaComputes.Load(); n != 1 {
		t.Fatalf("planned %d times under contention, want exactly 1", n)
	}
	m := plans[0]
	delta, err := r.Delta(from, to)
	if err != nil || !bytes.Equal(m.Delta, delta) {
		t.Fatalf("Delta = %d B, %v; the plan holds %d B", len(delta), err, len(m.Delta))
	}
	target, _ := r.Get(to)
	if !m.AsDelta || m.Key != "delta:"+from+">"+to || m.Cost.ShipBytes >= target.Metrics.SizeBytes || m.Cost.FlashBytes == 0 {
		t.Fatalf("plan = key %q, delta %v, cost %+v against %d B packed", m.Key, m.AsDelta, m.Cost, target.Metrics.SizeBytes)
	}
}

// TestPlanFullRetrainShipsFull: every weight of a retrain moves, so its
// dense delta does not beat the packed image and the move ships full, yet
// the delta itself is still served.
func TestPlanFullRetrainShipsFull(t *testing.T) {
	r := New()
	v1, err := r.RegisterModel("retrain", newTestNet(41), 0.9)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := r.RegisterModel("retrain", newTestNet(42), 0.9)
	if err != nil {
		t.Fatal(err)
	}
	m := r.Plan(v1.ID, v2.ID)
	if m.AsDelta || m.Delta == nil || m.Cost.ShipBytes < v2.Metrics.SizeBytes {
		t.Fatalf("plan = delta %v, %d B encoded, cost %+v against %d B packed; want a full ship", m.AsDelta, len(m.Delta), m.Cost, v2.Metrics.SizeBytes)
	}
	if _, err := r.Delta(v1.ID, v2.ID); err != nil {
		t.Fatal(err)
	}
}

// TestArtifactResolvesNames: a full name is the stored artifact, a delta
// name the move's delta, and anything else is refused without planning a
// move.
func TestArtifactResolvesNames(t *testing.T) {
	r, from, to := deltaFixture(t)
	full, err := r.Artifact(FullKey(from))
	if want, _ := r.Bytes(from); err != nil || !bytes.Equal(full, want) {
		t.Fatalf("Artifact(%q) = %d B, %v; want Bytes(%q), %d B", FullKey(from), len(full), err, from, len(want))
	}
	delta, err := r.Artifact(r.Plan(from, to).Key)
	if want, _ := r.Delta(from, to); err != nil || !bytes.Equal(delta, want) {
		t.Fatalf("Artifact(delta) = %d B, %v; want Delta, %d B", len(delta), err, len(want))
	}
	planned := r.deltaComputes.Load()
	for _, key := range []string{"full:no-such-version", "full:", "delta:", "delta:a>", "delta:>b", "delta:" + from, "x:y", ""} {
		if b, err := r.Artifact(key); err == nil {
			t.Errorf("Artifact(%q) = %d B, want an error", key, len(b))
		}
	}
	if n := r.deltaComputes.Load(); n != planned {
		t.Errorf("malformed names planned %d moves, want none", n-planned)
	}
}
