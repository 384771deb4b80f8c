package verify

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"strings"
	"testing"

	"tinymlops/internal/engine"
	"tinymlops/internal/tensor"
)

// Error-path coverage for the public entry points: every malformed
// operand set must be an error, never a silent false (or worse, a silent
// true).
func TestOperandValidation(t *testing.T) {
	rng := tensor.NewRNG(7)
	m, k, n := 3, 4, 5
	a := randMat(rng, m*k)
	b := randMat(rng, k*n)
	c := naiveMatMul(a, m, k, b, n)
	_, proof, _, err := ProveMatMul(a, m, k, b, n)
	if err != nil {
		t.Fatal(err)
	}
	pw, err := PrepareWeights(b, k, n)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		run  func() error
	}{
		{"prove nil a", func() error { _, _, _, err := ProveMatMul(nil, m, k, b, n); return err }},
		{"prove nil b", func() error { _, _, _, err := ProveMatMul(a, m, k, nil, n); return err }},
		{"prove zero m", func() error { _, _, _, err := ProveMatMul(a, 0, k, b, n); return err }},
		{"prove negative k", func() error { _, _, _, err := ProveMatMul(a, m, -1, b, n); return err }},
		{"prove short a", func() error { _, _, _, err := ProveMatMul(a[:len(a)-1], m, k, b, n); return err }},
		{"verify nil a", func() error { _, _, err := VerifyMatMul(nil, m, k, b, n, c, proof); return err }},
		{"verify nil b", func() error { _, _, err := VerifyMatMul(a, m, k, nil, n, c, proof); return err }},
		{"verify zero n", func() error { _, _, err := VerifyMatMul(a, m, k, b, 0, c, proof); return err }},
		{"verify short c", func() error { _, _, err := VerifyMatMul(a, m, k, b, n, c[:len(c)-1], proof); return err }},
		{"verify nil proof", func() error { _, _, err := VerifyMatMul(a, m, k, b, n, c, nil); return err }},
		{"freivalds zero rounds", func() error { _, err := freivaldsCheck(a, m, k, b, n, c, 0, 1); return err }},
		{"freivalds negative rounds", func() error { _, err := freivaldsCheck(a, m, k, b, n, c, -3, 1); return err }},
		{"freivalds nil b", func() error { _, err := freivaldsCheck(a, m, k, nil, n, c, 1, 1); return err }},
		{"freivalds short c", func() error { _, err := freivaldsCheck(a, m, k, b, n, c[:1], 1, 1); return err }},
		{"prepare zero k", func() error { _, err := PrepareWeights(b, 0, n); return err }},
		{"prepare short b", func() error { _, err := PrepareWeights(b[:2], k, n); return err }},
		{"prepared nil pw", func() error { _, _, err := VerifyMatMulPrepared(nil, a, m, nil, c, proof); return err }},
		{"prove prepared nil pw", func() error { _, _, _, err := ProveMatMulPrepared(nil, a, m, nil); return err }},
		{"prove prepared zero m", func() error { _, _, _, err := ProveMatMulPrepared(nil, a, 0, pw); return err }},
		{"prove prepared short a", func() error { _, _, _, err := ProveMatMulPrepared(nil, a[:len(a)-1], m, pw); return err }},
	}
	for _, tc := range cases {
		if err := tc.run(); err == nil {
			t.Errorf("%s: expected an error", tc.name)
		}
	}
}

// A proof bound to one context must not verify under another (or under
// none) — this is what makes settlement attestations replay-proof.
func TestContextBinding(t *testing.T) {
	rng := tensor.NewRNG(8)
	m, k, n := 2, 8, 6
	a := randMat(rng, m*k)
	b := randMat(rng, k*n)
	ctx := []byte("voucher-1|model-v1|seq-42|entryhash")
	c, proof, _, err := ProveMatMulCtx(ctx, a, m, k, b, n)
	if err != nil {
		t.Fatal(err)
	}
	if ok, _, err := VerifyMatMulCtx(ctx, a, m, k, b, n, c, proof); err != nil || !ok {
		t.Fatalf("honest ctx-bound proof rejected: %v %v", ok, err)
	}
	if ok, _, _ := VerifyMatMulCtx([]byte("voucher-1|model-v2|seq-42|entryhash"), a, m, k, b, n, c, proof); ok {
		t.Fatal("proof verified under a different context")
	}
	if ok, _, _ := VerifyMatMul(a, m, k, b, n, c, proof); ok {
		t.Fatal("ctx-bound proof verified without its context")
	}
	// And the other direction: a context-free proof fails under a context.
	c2, proof2, _, err := ProveMatMul(a, m, k, b, n)
	if err != nil {
		t.Fatal(err)
	}
	if ok, _, _ := VerifyMatMulCtx(ctx, a, m, k, b, n, c2, proof2); ok {
		t.Fatal("context-free proof verified under a context")
	}
}

func TestProofSerializationRoundTrip(t *testing.T) {
	rng := tensor.NewRNG(9)
	m, k, n := 4, 16, 8
	a := randMat(rng, m*k)
	b := randMat(rng, k*n)
	c, proof, _, err := ProveMatMul(a, m, k, b, n)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := proof.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if len(blob) != proof.SizeBytes() {
		t.Fatalf("blob is %d bytes, SizeBytes says %d", len(blob), proof.SizeBytes())
	}
	var back Proof
	if err := back.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	if ok, _, err := VerifyMatMul(a, m, k, b, n, c, &back); err != nil || !ok {
		t.Fatalf("round-tripped proof rejected: %v %v", ok, err)
	}
	// Malformed blobs are errors, not panics or garbage proofs: cut short,
	// all-zero dims, dims not padded to powers of two, and a K whose
	// log₂K rounds the blob does not hold exactly.
	withDims := func(m, k, n uint32) []byte {
		b := append([]byte(nil), blob...)
		for i, d := range []uint32{m, k, n} {
			binary.LittleEndian.PutUint32(b[4*i:], d)
		}
		return b
	}
	bad := [][]byte{nil, blob[:5], blob[:len(blob)-3], make([]byte, 12),
		withDims(3, 16, 8), withDims(4, 16, 0), withDims(4, 8, 8), withDims(4, 32, 8)}
	for i, blb := range bad {
		var p Proof
		if err := p.UnmarshalBinary(blb); err == nil {
			t.Errorf("bad blob %d accepted", i)
		}
	}
}

// The batch verifier must reach exactly the verdicts of one-at-a-time
// VerifyMatMulPrepared — across honest items, corrupted results, wrong
// contexts, tampered proofs, and at every worker count.
func TestBatchMatchesSerialVerdicts(t *testing.T) {
	rng := tensor.NewRNG(11)
	type class struct {
		id   string
		b    []int32
		k, n int
	}
	// The second class is a cohort variant of the first: same shape,
	// different weights.
	classes := []class{
		{"model-v1/8x6", randMat(rng, 8*6), 8, 6},
		{"model-v1-int8/8x6", randMat(rng, 8*6), 8, 6},
		{"model-v2/16x4", randMat(rng, 16*4), 16, 4},
	}

	var items []BatchItem
	for i := 0; i < 12; i++ {
		cl := classes[i%len(classes)]
		m := 1 + i%3
		a := randMat(rng, m*cl.k)
		ctx := []byte(fmt.Sprintf("ctx-%d", i))
		c, proof, _, err := ProveMatMulCtx(ctx, a, m, cl.k, cl.b, cl.n)
		if err != nil {
			t.Fatal(err)
		}
		it := BatchItem{ClassID: cl.id, Ctx: ctx, A: a, M: m, C: c, Proof: proof}
		switch i % 4 {
		case 1: // inflate a result cell — the classic overclaim
			it.C = append([]int64(nil), c...)
			it.C[0] += 7
		case 2: // replay under the wrong context
			it.Ctx = []byte("ctx-stale")
		case 3: // tamper with a round polynomial
			cp := *proof
			cp.Rounds = append([]RoundPoly(nil), proof.Rounds...)
			cp.Rounds[0][1] = Add(cp.Rounds[0][1], 1)
			it.Proof = &cp
		}
		items = append(items, it)
	}
	// One item against an unregistered class, one with a shape mismatch,
	// and an honest proof relabeled to the second class — the wrong-version
	// charge a cohort device's report can carry.
	items = append(items, BatchItem{ClassID: "ghost", Ctx: nil, A: items[0].A, M: items[0].M, C: items[0].C, Proof: items[0].Proof})
	items = append(items, BatchItem{ClassID: classes[0].id, Ctx: nil, A: items[0].A[:3], M: 1, C: items[0].C, Proof: items[0].Proof})
	relabeled := items[0]
	relabeled.ClassID = classes[1].id
	items = append(items, relabeled)

	var want []BatchResult
	var fromWorkers map[int][]BatchResult = map[int][]BatchResult{}
	for _, workers := range []int{1, 4, 16} {
		eng := engine.New(engine.Config{Workers: workers})
		bv := NewBatchVerifier(eng)
		for _, cl := range classes {
			if err := bv.Prepare(cl.id, cl.b, cl.k, cl.n); err != nil {
				t.Fatal(err)
			}
		}
		got, _, err := bv.VerifyBatch(items)
		if err != nil {
			t.Fatal(err)
		}
		fromWorkers[workers] = got
		if want == nil {
			// Serial reference: same verdicts one item at a time.
			for i, it := range items {
				pw, ok := bv.Class(it.ClassID)
				if !ok {
					want = append(want, BatchResult{Err: fmt.Errorf("unknown class")})
					continue
				}
				okv, _, verr := VerifyMatMulPrepared(it.Ctx, it.A, it.M, pw, it.C, it.Proof)
				_ = i
				want = append(want, BatchResult{OK: okv, Err: verr})
			}
		}
	}
	for workers, got := range fromWorkers {
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d results, want %d", workers, len(got), len(want))
		}
		for i := range got {
			if got[i].OK != want[i].OK {
				t.Errorf("workers=%d item %d: batch OK=%v, serial OK=%v", workers, i, got[i].OK, want[i].OK)
			}
			if (got[i].Err == nil) != (want[i].Err == nil) {
				t.Errorf("workers=%d item %d: batch err=%v, serial err=%v", workers, i, got[i].Err, want[i].Err)
			}
		}
	}
	// Spot-check the expected verdict pattern: i%4==0 honest, others bad.
	got := fromWorkers[1]
	for i := 0; i < 12; i++ {
		if wantOK := i%4 == 0; got[i].OK != wantOK {
			t.Errorf("item %d: OK=%v, want %v", i, got[i].OK, wantOK)
		}
	}
	if got[12].Err == nil || !strings.Contains(got[12].Err.Error(), "unknown weight class") {
		t.Errorf("unregistered class: err=%v", got[12].Err)
	}
	if got[13].Err == nil {
		t.Error("shape-mismatched item: expected an error")
	}
	if got[14].OK || got[14].Err != nil {
		t.Errorf("relabeled item: OK=%v err=%v, want a rejection", got[14].OK, got[14].Err)
	}
}

// The point of PrepareWeights: a settlement window of w proofs against
// one class hashes the weight matrix zero times per proof, versus once
// per proof on the naive path. HashedElems makes that deterministic and
// testable (no wall-clock flakiness).
func TestBatchAmortizesWeightHashing(t *testing.T) {
	rng := tensor.NewRNG(13)
	k, n := 64, 32
	b := randMat(rng, k*n)
	const window = 8

	var items []BatchItem
	var naive Stats
	for i := 0; i < window; i++ {
		a := randMat(rng, k)
		ctx := []byte(fmt.Sprintf("q-%d", i))
		c, proof, _, err := ProveMatMulCtx(ctx, a, 1, k, b, n)
		if err != nil {
			t.Fatal(err)
		}
		items = append(items, BatchItem{ClassID: "cls", Ctx: ctx, A: a, M: 1, C: c, Proof: proof})
		ok, st, err := VerifyMatMulCtx(ctx, a, 1, k, b, n, c, proof)
		if err != nil || !ok {
			t.Fatalf("naive verify %d: %v %v", i, ok, err)
		}
		naive.HashedElems += st.HashedElems
	}

	bv := NewBatchVerifier(nil)
	if err := bv.Prepare("cls", b, k, n); err != nil {
		t.Fatal(err)
	}
	results, batched, err := bv.VerifyBatch(items)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Err != nil || !r.OK {
			t.Fatalf("batch item %d: %+v", i, r)
		}
	}
	pw, _ := bv.Class("cls")
	perProofWeightCost := int64(pw.kp) * int64(pw.np)
	// The naive path pays the weight digest once per proof; across the
	// window the batch pays it at most once (at Prepare, not here).
	if batched.HashedElems > naive.HashedElems-(window-1)*perProofWeightCost {
		t.Fatalf("amortization missing: naive hashed %d elems, batch hashed %d (weight digest is %d/proof)",
			naive.HashedElems, batched.HashedElems, perProofWeightCost)
	}
}

// freivaldsCheck probabilistically verifies c = a×b with `rounds` random
// projections over the field; each round costs O(m·k + k·n + m·n) and a
// wrong product survives a round with probability ≤ 1/p. The seed
// parameterizes the randomness (use a fresh one per check). rounds must
// be positive and the operand shapes must agree, else an error. It is the
// independent oracle the sum-check tests hold products to.
func freivaldsCheck(a []int32, m, k int, b []int32, n int, c []int64, rounds int, seed uint64) (bool, error) {
	if rounds <= 0 {
		return false, fmt.Errorf("verify: freivalds needs rounds >= 1, got %d", rounds)
	}
	if err := checkOperands(a, m, k, len(b), n); err != nil {
		return false, err
	}
	if len(c) != m*n {
		return false, fmt.Errorf("verify: result size %d, want %d", len(c), m*n)
	}
	af, mp, kp := padMatrix(a, m, k)
	bf, _, np := padMatrix(b, k, n)
	cf := padResult(c, m, n, mp, np)
	tr := &transcript{h: sha256.New(), state: sha256.Sum256([]byte("tinymlops/verify/freivalds"))}
	tr.absorbInt(int(seed))
	br := make([]Elem, kp)
	for round := 0; round < rounds; round++ {
		r := tr.challenges(np)
		// br = B×r ; abr = A×br ; cr = C×r ; check abr == cr.
		for i := range br {
			br[i] = dot(r, bf[i*np:], 1)
		}
		for i := 0; i < mp; i++ {
			if dot(br, af[i*kp:], 1) != dot(r, cf[i*np:], 1) {
				return false, nil
			}
		}
	}
	return true, nil
}
