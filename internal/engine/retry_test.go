package engine

import (
	"errors"
	"testing"
)

func TestRetrySucceedsAfterTransientFailures(t *testing.T) {
	calls := 0
	attempts, err := Retry(RetryPolicy{Attempts: 4}, nil, func(attempt int) error {
		calls++
		if attempt != calls {
			t.Fatalf("attempt %d on call %d", attempt, calls)
		}
		if attempt < 3 {
			return errors.New("transient")
		}
		return nil
	})
	if err != nil || calls != 3 || attempts != 3 {
		t.Fatalf("err=%v calls=%d attempts=%d", err, calls, attempts)
	}
}

func TestRetryStopsOnPermanentError(t *testing.T) {
	permanent := errors.New("permanent")
	calls := 0
	attempts, err := Retry(RetryPolicy{Attempts: 5}, func(err error) bool {
		return !errors.Is(err, permanent)
	}, func(int) error {
		calls++
		return permanent
	})
	if !errors.Is(err, permanent) || calls != 1 || attempts != 1 {
		t.Fatalf("err=%v calls=%d attempts=%d", err, calls, attempts)
	}
}

func TestRetryExhaustsAttempts(t *testing.T) {
	fail := errors.New("always")
	calls := 0
	_, err := Retry(RetryPolicy{Attempts: 3}, nil, func(int) error {
		calls++
		return fail
	})
	if !errors.Is(err, fail) || calls != 3 {
		t.Fatalf("err=%v calls=%d", err, calls)
	}
	// Attempts ≤ 1 means a single try.
	calls = 0
	if _, err := Retry(RetryPolicy{}, nil, func(int) error { calls++; return fail }); err == nil || calls != 1 {
		t.Fatalf("zero policy: err=%v calls=%d", err, calls)
	}
}

func TestSeedForIDStableAndDistinct(t *testing.T) {
	a := SeedForID(42, 1, "phone-00")
	if a != SeedForID(42, 1, "phone-00") {
		t.Fatal("SeedForID not deterministic")
	}
	seen := map[uint64]string{42: ""}
	for _, id := range []string{"phone-00", "phone-01", "m0-sensor-00", ""} {
		for round := uint64(0); round < 3; round++ {
			s := SeedForID(42, round, id)
			if prev, dup := seen[s]; dup {
				t.Fatalf("seed collision between %q and (%q, round %d)", prev, id, round)
			}
			seen[s] = id
		}
	}
	if SeedForID(42, 1, "phone-00") == SeedForID(43, 1, "phone-00") {
		t.Fatal("root seed must matter")
	}
}
