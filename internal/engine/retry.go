package engine

// RetryPolicy bounds how a transient failure is retried. The schedule is
// fully deterministic — no jitter, no delay, no wall-clock dependence — so a
// fleet round that retries flaky devices still produces bit-identical
// results at any worker count: the attempt sequence a device sees is a pure
// function of the policy, never of scheduling.
type RetryPolicy struct {
	// Attempts is the total number of tries (first call included). Values
	// ≤ 1 mean no retry.
	Attempts int
}

// Retry runs fn up to p.Attempts times and returns how many attempts ran
// plus the last error (nil on success). Retries follow one another with no
// modeled delay. retryable decides whether an error is worth another try —
// nil retries everything. A non-retryable error (a topology mismatch, an
// exhausted quota) aborts immediately: retrying a permanent failure only
// burns the fleet's radio budget.
func Retry(p RetryPolicy, retryable func(error) bool, fn func(attempt int) error) (attempts int, err error) {
	for a := 1; ; a++ {
		if err = fn(a); err == nil || a >= p.Attempts || (retryable != nil && !retryable(err)) {
			return a, err
		}
	}
}

// SeedForID derives an independent 64-bit seed for a string-keyed entity
// (a device ID, a federated client ID) in round r under a root seed — the
// ID-keyed sibling of SeedFor. Because the derivation hashes the ID rather
// than a positional index, the stream an entity sees is stable across
// fleet subsets and iteration orders, which is what lets a fault plane
// assign per-device faults deterministically at any worker count.
func SeedForID(root, round uint64, id string) uint64 {
	// FNV-1a over the ID, then the same splitmix64 avalanche SeedFor uses.
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(id); i++ {
		h ^= uint64(id[i])
		h *= prime64
	}
	z := mix64(root + 0x9E3779B97F4A7C15*round)
	return mix64(z ^ h)
}
