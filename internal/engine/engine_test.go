package engine

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"tinymlops/internal/device"
	"tinymlops/internal/tensor"
)

func TestForEachCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 64} {
		e := New(Config{Workers: workers})
		const n = 1000
		var hits [n]atomic.Int32
		if err := e.ForEach(n, func(i int) error {
			hits[i].Add(1)
			return nil
		}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, got)
			}
		}
	}
}

func TestForEachJoinsErrorsInIndexOrder(t *testing.T) {
	e := New(Config{Workers: 4})
	err := e.ForEach(10, func(i int) error {
		if i%3 == 0 {
			return fmt.Errorf("task %d failed", i)
		}
		return nil
	})
	if err == nil {
		t.Fatal("expected error")
	}
	msg := err.Error()
	// errors.Join preserves slice order, which is index order.
	if !strings.Contains(msg, "task 0 failed") || !strings.Contains(msg, "task 9 failed") {
		t.Fatalf("unexpected joined error: %v", msg)
	}
	if strings.Index(msg, "task 0") > strings.Index(msg, "task 9") {
		t.Fatalf("errors not in index order: %v", msg)
	}
}

func TestForEachRecoversPanics(t *testing.T) {
	e := New(Config{Workers: 3})
	err := e.ForEach(8, func(i int) error {
		if i == 5 {
			panic("kaboom")
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "task 5 panicked: kaboom") {
		t.Fatalf("panic not converted to error: %v", err)
	}
}

func TestMapCollectsInIndexOrder(t *testing.T) {
	e := New(Config{Workers: 8})
	out, err := Map(e, 100, func(i int) (int, error) { return i * i, nil })
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
}

// roundFingerprint runs rounds of per-device work (a tick, RNG draws and
// simulated inference) over a standard fleet, each device drawing from the
// stream SeedForID derives from its round and ID, and folds every outcome
// into a deterministic fingerprint.
func roundFingerprint(t *testing.T, workers, rounds int) uint64 {
	t.Helper()
	fleet, err := device.NewStandardFleet(device.FleetSpec{CountPerProfile: 20})
	if err != nil {
		t.Fatal(err)
	}
	e := New(Config{Workers: workers})
	devs := fleet.Devices()
	var fp uint64
	for round := 1; round <= rounds; round++ {
		values := make([]uint64, len(devs))
		failed := make([]bool, len(devs))
		if err := e.ForEach(len(devs), func(i int) error {
			rng := tensor.NewRNG(SeedForID(7, uint64(round), devs[i].ID))
			values[i] = rng.Uint64()
			lat, err := devs[i].RunInference(1000+int64(rng.Intn(1000)), 8)
			failed[i] = err != nil
			values[i] ^= uint64(lat)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for i, d := range devs {
			fp = fp*1099511628211 ^ values[i]
			for _, c := range d.ID {
				fp = fp*1099511628211 ^ uint64(c)
			}
			if failed[i] {
				fp ^= 0xDEAD
			}
		}
	}
	return fp
}

// TestFleetRoundsDeterministicAcrossWorkerCounts is the engine's core
// contract: same seed ⇒ identical fleet results at any worker count.
func TestFleetRoundsDeterministicAcrossWorkerCounts(t *testing.T) {
	want := roundFingerprint(t, 1, 3)
	for _, workers := range []int{2, 4, 16} {
		if got := roundFingerprint(t, workers, 3); got != want {
			t.Fatalf("workers=%d: fingerprint %x, want %x", workers, got, want)
		}
	}
}
