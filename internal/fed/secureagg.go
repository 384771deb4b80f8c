package fed

import (
	"fmt"
	"sync"

	"tinymlops/internal/tensor"
)

// Secure aggregation by pairwise masking (Bonawitz et al. style): every
// pair of clients (i, j) derives a shared mask from a pairwise seed;
// client i adds the mask, client j subtracts it. Individual uploads are
// indistinguishable from noise to the server, but the masks cancel in the
// sum, so federated averaging still works — addressing §III-D's tension
// between aggregating updates and not revealing any single user's update.
//
// The masks (MaskFixed plus the Aggregator in hier.go) are uniform uint64
// words added with wrapping arithmetic to fixed-point contributions, so
// they cancel *exactly* — bit-identical to an unmasked integer sum — and a
// dropped client's stale masks can be reconciled precisely by
// regenerating its pairwise streams from the surviving peers' seeds.

// PairwiseSeeds holds the symmetric seed matrix seeds[i][j] (= seeds[j][i])
// agreed between each client pair (in production via key agreement; here
// derived from a session RNG).
type PairwiseSeeds [][]uint64

// NewPairwiseSeeds derives the seed matrix for n clients.
func NewPairwiseSeeds(rng *tensor.RNG, n int) PairwiseSeeds {
	seeds := make([][]uint64, n)
	for i := range seeds {
		seeds[i] = make([]uint64, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			s := rng.Uint64()
			seeds[i][j] = s
			seeds[j][i] = s
		}
	}
	return seeds
}

// validate checks that idx addresses a square seed matrix.
func (s PairwiseSeeds) validate(idx int) error {
	n := len(s)
	if idx < 0 || idx >= n {
		return fmt.Errorf("fed: client index %d out of range %d", idx, n)
	}
	for i, row := range s {
		if len(row) != n {
			return fmt.Errorf("fed: seeds row %d has %d entries, want %d (matrix must be square)", i, len(row), n)
		}
	}
	return nil
}

// MaskFixed lifts client idx's fixed-point contribution into the uint64
// ring and applies all pairwise masks with wrapping arithmetic: + the
// shared word stream for peers j > idx, − for peers j < idx. Because
// addition mod 2^64 is exactly associative, a sum over any grouping of
// masked vectors minus the reconciled masks of absent peers equals the
// unmasked integer sum bit for bit. It is what one client computes alone;
// maskCohort produces the same words for a whole cohort.
func MaskFixed(contrib []int64, idx int, seeds PairwiseSeeds) ([]uint64, error) {
	if err := seeds.validate(idx); err != nil {
		return nil, err
	}
	out := make([]uint64, len(contrib))
	for k, v := range contrib {
		out[k] = uint64(v)
	}
	for peer, seed := range seeds[idx] {
		switch {
		case peer > idx:
			applyStream(seed, out, nil)
		case peer < idx:
			applyStream(seed, nil, out)
		}
	}
	return out, nil
}

// applyStream draws one pairwise word stream and applies it with wrapping
// arithmetic: added to plus, subtracted from minus. Either may be nil — the
// end of the pair that is not being computed.
func applyStream(seed uint64, plus, minus []uint64) {
	var rng tensor.RNG
	rng.Seed(seed)
	switch {
	case plus != nil && minus != nil:
		for k := range plus {
			w := rng.Uint64()
			plus[k] += w
			minus[k] -= w
		}
	case plus != nil:
		for k := range plus {
			plus[k] += rng.Uint64()
		}
	default:
		for k := range minus {
			minus[k] -= rng.Uint64()
		}
	}
}

// maskCohort masks a whole cohort in place, drawing each pairwise stream
// once: rows[i] is participant i's lifted contribution, or nil when i
// uploads nothing the aggregator will sum (it dropped, or arrived late).
// The (i, j) stream is added to i's row and subtracted from j's, so every
// non-nil row ends word-identical to MaskFixed of that participant alone —
// wrapping addition commutes, the order the streams arrive in does not
// show — including the stale share of each absent peer, which stays for
// Aggregator.Unmask to reconcile. A pair with both ends absent is never
// drawn. The simulator holds the cohort's rows at once to do this; a real
// client holds only its own.
func maskCohort(rows [][]uint64, seeds PairwiseSeeds) {
	for i, ri := range rows {
		for j := i + 1; j < len(rows); j++ {
			if ri != nil || rows[j] != nil {
				applyStream(seeds[i][j], ri, rows[j])
			}
		}
	}
}

// Aggregator is one edge tier's masked-sum accumulator: clients Submit
// their masked fixed-point contributions in any order (Submit is safe for
// concurrent use — wrapping addition commutes, so the total is schedule-
// independent), and Unmask reconciles the pairwise masks of the clients
// that never arrived by regenerating their shared streams from the
// surviving peers' seeds. The aggregator only ever holds masked words and
// the final cohort sum; no individual update is recoverable from it.
type Aggregator struct {
	// ID names the aggregator in stats and fault draws.
	ID string

	mu       sync.Mutex
	seeds    PairwiseSeeds
	sum      []uint64
	samples  int64
	received []bool
	nRecv    int
}

// NewAggregator builds an edge aggregator for one round's cohort: seeds is
// the cohort's pairwise matrix (its size fixes the participant count) and
// dim the update dimension.
func NewAggregator(id string, seeds PairwiseSeeds, dim int) (*Aggregator, error) {
	if dim <= 0 {
		return nil, fmt.Errorf("fed: aggregator %s: dimension %d", id, dim)
	}
	n := len(seeds)
	if n == 0 {
		return nil, fmt.Errorf("fed: aggregator %s: empty seed matrix", id)
	}
	for i, row := range seeds {
		if len(row) != n {
			return nil, fmt.Errorf("fed: aggregator %s: seeds row %d has %d entries, want %d", id, i, len(row), n)
		}
	}
	return &Aggregator{
		ID: id, seeds: seeds,
		sum:      make([]uint64, dim),
		received: make([]bool, n),
	}, nil
}

// Submit adds participant idx's masked contribution (samples examples) to
// the cohort sum. Duplicate or out-of-range submissions are rejected.
func (a *Aggregator) Submit(idx int, masked []uint64, samples int) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if idx < 0 || idx >= len(a.received) {
		return fmt.Errorf("fed: aggregator %s: participant %d out of range %d", a.ID, idx, len(a.received))
	}
	if a.received[idx] {
		return fmt.Errorf("fed: aggregator %s: participant %d submitted twice", a.ID, idx)
	}
	if len(masked) != len(a.sum) {
		return fmt.Errorf("fed: aggregator %s: update length %d, want %d", a.ID, len(masked), len(a.sum))
	}
	if samples <= 0 {
		return fmt.Errorf("fed: aggregator %s: participant %d reports %d samples", a.ID, idx, samples)
	}
	a.received[idx] = true
	a.nRecv++
	a.samples += int64(samples)
	for k, v := range masked {
		a.sum[k] += v
	}
	return nil
}

// Unmask reconciles the masks of absent participants and returns the
// exact cohort partial (Σ samples_i·q_i over received clients) plus the
// received sample total. Every surviving submission carries one stale
// mask per absent peer; regenerating the (survivor, absent) streams from
// the seed matrix and subtracting them with the survivor's sign recovers
// the unmasked sum bit-exactly. An empty round (nothing received) errors.
func (a *Aggregator) Unmask() ([]int64, int64, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.nRecv == 0 {
		return nil, 0, fmt.Errorf("fed: aggregator %s: no submissions to unmask", a.ID)
	}
	out := make([]uint64, len(a.sum))
	copy(out, a.sum)
	n := len(a.received)
	for i := 0; i < n; i++ {
		if !a.received[i] {
			continue
		}
		for d := 0; d < n; d++ {
			if d == i || a.received[d] {
				continue
			}
			// Survivor i applied sign(i,d)·stream(seeds[i][d]); remove it.
			if d > i {
				applyStream(a.seeds[i][d], nil, out)
			} else {
				applyStream(a.seeds[i][d], out, nil)
			}
		}
	}
	partial := make([]int64, len(out))
	for k, v := range out {
		partial[k] = int64(v)
	}
	return partial, a.samples, nil
}
