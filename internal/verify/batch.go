package verify

import (
	"fmt"
	"sort"
	"sync"

	"tinymlops/internal/engine"
)

// Amortized settlement proving and verification. A settlement window of
// metered queries holds many proofs against few (model-version, shape)
// classes: every proof of a class shares the same weight matrix B. The
// sound per-class sharing is (a) B's padded field encoding and transcript
// digest — PrepareWeights, reused by ProveMatMulPrepared on the device
// and VerifyMatMulPrepared at the vendor — and, for the verifier only,
// (b) one Freivalds projection per class per batch, derived from a batch
// transcript that binds every claim in the window, used to pre-screen
// each proof in O(m·k + m·n) before the full sum-check runs. The
// sum-check's own point challenges r1, r2 are NOT shared on either side:
// they must bind each proof's claimed C (see verifyLifted), so a prover
// shares (a) and nothing else.

// PreparedWeights is the reusable per-class encoding of a weight matrix:
// the padded field matrix and its transcript digest. Immutable once
// prepared, so provers and verifiers may share one value concurrently.
type PreparedWeights struct {
	// K, N are the logical (unpadded) dimensions.
	K, N int
	// kp, np are the padded dimensions.
	kp, np int
	bf     []Elem
	db     [32]byte
}

// PrepareWeights pads and field-encodes a k×n weight matrix and digests
// it once, so a settlement window of proofs against the same weights
// skips the per-proof encoding and hashing.
func PrepareWeights(b []int32, k, n int) (*PreparedWeights, error) {
	if k < 1 || n < 1 {
		return nil, fmt.Errorf("verify: weight dims %d×%d must be positive", k, n)
	}
	if len(b) != k*n {
		return nil, fmt.Errorf("verify: weight size %d does not match dims %d×%d", len(b), k, n)
	}
	bf, kp, np := padMatrix(b, k, n)
	return &PreparedWeights{K: k, N: n, kp: kp, np: np, bf: bf, db: digestElems(bf)}, nil
}

// mulCols returns B×w for a vector w of length np: one dot product per
// row of B, read in place. With w the eq(r₂, ·) table it is the column
// fold B̃(·, r₂) of the sum-check; with w a Freivalds challenge vector it
// is the per-class half of a pre-screen round.
func (pw *PreparedWeights) mulCols(w []Elem) []Elem {
	out := make([]Elem, pw.kp)
	for i := range out {
		out[i] = dot(w, pw.bf[i*pw.np:], 1)
	}
	return out
}

// foldCols returns B̃(·, c), the kp-vector foldCols(bf, kp, np, c) would
// produce, without copying the matrix.
func (pw *PreparedWeights) foldCols(c []Elem) []Elem { return pw.mulCols(eqTable(c)) }

// matMul computes C = A×B over the field (the prover's native
// computation) for the first m rows of the mp×kp matrix af, into a padded
// mp×np result. Padding rows and columns of C are zero because those of
// A and B are.
func (pw *PreparedWeights) matMul(af []Elem, m, mp int) []Elem {
	kp, np := pw.kp, pw.np
	cf := make([]Elem, mp*np)
	for i := 0; i < m; i++ {
		arow := af[i*kp : (i+1)*kp]
		for j := 0; j < pw.N; j++ {
			cf[i*np+j] = dot(arow, pw.bf[j:], np)
		}
	}
	return cf
}

// BatchItem is one proof in a settlement batch.
type BatchItem struct {
	// ClassID names the (model-version, shape) class whose prepared
	// weights verify this item; it must have been registered with Prepare.
	ClassID string
	// Ctx is the application context the proof was bound to.
	Ctx []byte
	// A is the claimed m×K input, C the claimed m×N product.
	A []int32
	M int
	C []int64
	// Proof is the device's sum-check proof for C = A×B.
	Proof *Proof
}

// BatchResult is one item's verdict. Err reports a malformed item
// (unknown class, shape mismatch, nil proof); OK reports whether a
// well-formed item's proof verified.
type BatchResult struct {
	OK  bool
	Err error
}

// BatchVerifier amortizes sum-check verification across a settlement
// window: weight classes are prepared once and cached, every batch
// derives one shared Freivalds projection per class to pre-screen items
// cheaply, and the surviving full verifications fan out over an engine
// worker pool. Results are bit-identical at any worker count. Safe for
// concurrent use.
type BatchVerifier struct {
	eng *engine.Engine

	mu      sync.Mutex
	classes map[string]*PreparedWeights
}

// NewBatchVerifier returns a batch verifier running on eng (nil = a
// fresh single-worker engine).
func NewBatchVerifier(eng *engine.Engine) *BatchVerifier {
	if eng == nil {
		eng = engine.New(engine.Config{Workers: 1})
	}
	return &BatchVerifier{eng: eng, classes: make(map[string]*PreparedWeights)}
}

// Prepare registers (or refreshes) a weight class. Idempotent for
// identical weights.
func (bv *BatchVerifier) Prepare(classID string, b []int32, k, n int) error {
	pw, err := PrepareWeights(b, k, n)
	if err != nil {
		return err
	}
	bv.mu.Lock()
	bv.classes[classID] = pw
	bv.mu.Unlock()
	return nil
}

// Class returns a registered class's prepared weights.
func (bv *BatchVerifier) Class(classID string) (*PreparedWeights, bool) {
	bv.mu.Lock()
	defer bv.mu.Unlock()
	pw, ok := bv.classes[classID]
	return pw, ok
}

// VerifyBatch checks every item and returns per-item verdicts in input
// order plus aggregate verifier stats. Accept/reject decisions are
// exactly those of verifying each item alone with VerifyMatMulPrepared:
// the Freivalds pre-screen can only reject items the full check would
// also reject (a projection mismatch is a proof of inconsistency), and
// every pre-screen survivor still runs the full sum-check.
func (bv *BatchVerifier) VerifyBatch(items []BatchItem) ([]BatchResult, Stats, error) {
	results := make([]BatchResult, len(items))
	var agg Stats
	if len(items) == 0 {
		return results, agg, nil
	}

	// Snapshot the classes this batch touches.
	bv.mu.Lock()
	classes := make(map[string]*PreparedWeights, len(bv.classes))
	for _, it := range items {
		if pw, ok := bv.classes[it.ClassID]; ok {
			classes[it.ClassID] = pw
		}
	}
	bv.mu.Unlock()

	// The batch transcript binds every claim in the window before any
	// challenge is drawn, so the shared projections are unpredictable to
	// the provers and identical for any verifier replaying the batch.
	tr := newTranscript("settlement-batch")
	tr.absorbInt(len(items))
	for _, it := range items {
		tr.absorbBytes([]byte(it.ClassID))
		tr.absorbInt(len(it.Ctx))
		tr.absorbBytes(it.Ctx)
		tr.absorbInt(it.M)
		ce := make([]Elem, len(it.C))
		for i, v := range it.C {
			ce[i] = FromInt64(v)
		}
		dc := digestElems(ce)
		tr.absorbBytes(dc[:])
		agg.HashedElems += int64(len(it.C))
	}

	// One Freivalds projection per class, in sorted class order so the
	// challenge assignment is deterministic.
	names := make([]string, 0, len(classes))
	for name := range classes {
		names = append(names, name)
	}
	sort.Strings(names)
	type projection struct{ r, br []Elem }
	proj := make(map[string]projection, len(names))
	for _, name := range names {
		pw := classes[name]
		r := tr.challenges(pw.np)
		proj[name] = projection{r: r, br: pw.mulCols(r)}
		agg.VerifierMuls += int64(pw.kp) * int64(pw.np)
	}

	// Fan the per-item work out; each verdict is a pure function of the
	// item and the shared projections, so scheduling cannot change it.
	stats := make([]Stats, len(items))
	_ = bv.eng.ForEach(len(items), func(i int) error {
		it := items[i]
		pw, ok := classes[it.ClassID]
		if !ok {
			results[i].Err = fmt.Errorf("verify: unknown weight class %q", it.ClassID)
			return nil
		}
		if it.M < 1 || len(it.A) != it.M*pw.K || len(it.C) != it.M*pw.N {
			results[i].Err = fmt.Errorf("verify: item %d shapes %d,%d do not match class %q (%d×%d, m=%d)",
				i, len(it.A), len(it.C), it.ClassID, pw.K, pw.N, it.M)
			return nil
		}
		// Lift once: the pre-screen and the sum-check read the same
		// padded operands.
		af, mp, _ := padMatrix(it.A, it.M, pw.K)
		cf := padResult(it.C, it.M, pw.N, mp, pw.np)
		pr := proj[it.ClassID]
		if !freivaldsProjected(af, cf, it.M, pw, pr.r, pr.br) {
			stats[i].VerifierMuls += int64(it.M) * int64(pw.K+pw.N)
			results[i].OK = false
			return nil
		}
		ok, st, err := verifyLifted(it.Ctx, af, cf, mp, pw, it.Proof)
		st.VerifierMuls += int64(it.M) * int64(pw.K+pw.N)
		stats[i] = st
		results[i] = BatchResult{OK: ok, Err: err}
		return nil
	})
	for _, st := range stats {
		agg.ProverMuls += st.ProverMuls
		agg.VerifierMuls += st.VerifierMuls
		agg.DirectMuls += st.DirectMuls
		agg.HashedElems += st.HashedElems
		agg.ProofBytes += st.ProofBytes
	}
	return results, agg, nil
}

// freivaldsProjected runs one pre-screen round for a claimed m-row
// product (lifted and padded) against the class's shared projection:
// A×(B×r) must equal C×r row by row. A mismatch proves A×B ≠ C; a match
// proves nothing and the full sum-check still runs.
func freivaldsProjected(af, cf []Elem, m int, pw *PreparedWeights, r, br []Elem) bool {
	for i := 0; i < m; i++ {
		if dot(br, af[i*pw.kp:], 1) != dot(r, cf[i*pw.np:], 1) {
			return false
		}
	}
	return true
}
