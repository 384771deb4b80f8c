package verify

import (
	"fmt"
	"sync"

	"tinymlops/internal/engine"
)

// Amortized settlement proving and verification. A settlement window of
// metered queries holds many proofs against few (model-version, shape)
// classes: every proof of a class shares the same weight matrix B. The
// one sound per-class sharing is B's padded field encoding and transcript
// digest — PrepareWeights, reused by ProveMatMulPrepared on the device
// and VerifyMatMulPrepared at the vendor. The sum-check's point
// challenges r1, r2 are NOT shared on either side: they must bind each
// proof's claimed C (see VerifyMatMulPrepared).

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

// foldCols returns B̃(·, c), the kp-vector foldCols(bf, kp, np, c) would
// produce, without copying the matrix: one dot product of each row of B,
// read in place, against the eq(c, ·) table.
func (pw *PreparedWeights) foldCols(c []Elem) []Elem {
	w := eqTable(c)
	out := make([]Elem, pw.kp)
	for i := range out {
		out[i] = dot(w, pw.bf[i*pw.np:], 1)
	}
	return out
}

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
// window: weight classes are prepared once and cached, and each batch's
// verifications fan out over an engine worker pool. Results are
// bit-identical at any worker count. Safe for concurrent use.
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

// VerifyBatch checks every item with VerifyMatMulPrepared against its
// class's prepared weights and returns per-item verdicts in input order
// plus the items' summed verifier stats. The items fan out over the
// engine's workers; each verdict depends only on its item and class, so
// results are bit-identical at any worker count.
func (bv *BatchVerifier) VerifyBatch(items []BatchItem) ([]BatchResult, Stats, error) {
	results := make([]BatchResult, len(items))
	var agg Stats
	if len(items) == 0 {
		return results, agg, nil
	}

	// Snapshot the class each item names; nil for an unregistered one.
	pws := make([]*PreparedWeights, len(items))
	bv.mu.Lock()
	for i, it := range items {
		pws[i] = bv.classes[it.ClassID]
	}
	bv.mu.Unlock()

	stats := make([]Stats, len(items))
	_ = bv.eng.ForEach(len(items), func(i int) error {
		it := items[i]
		if pws[i] == nil {
			results[i].Err = fmt.Errorf("verify: unknown weight class %q", it.ClassID)
			return nil
		}
		ok, st, err := VerifyMatMulPrepared(it.Ctx, it.A, it.M, pws[i], it.C, it.Proof)
		results[i] = BatchResult{OK: ok, Err: err}
		stats[i] = st
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
