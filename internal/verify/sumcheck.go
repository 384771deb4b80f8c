package verify

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
)

// transcript implements the Fiat-Shamir heuristic: both parties absorb
// the same public values and derive identical pseudo-random challenges,
// turning the interactive sum-check into a stand-alone proof. Every
// absorb is state ← SHA-256(state ‖ data); the hasher and the staging
// buffer live in the transcript so an absorb allocates nothing.
type transcript struct {
	h     hash.Hash
	state [32]byte
	buf   [24]byte
}

func newTranscript(label string) *transcript {
	t := &transcript{h: sha256.New()}
	t.state = sha256.Sum256([]byte("tinymlops/verify/" + label))
	return t
}

func (t *transcript) absorbBytes(data []byte) {
	t.h.Reset()
	t.h.Write(t.state[:])
	t.h.Write(data)
	t.h.Sum(t.state[:0])
}

func (t *transcript) absorbRound(g RoundPoly) {
	for i, e := range g {
		binary.LittleEndian.PutUint64(t.buf[8*i:], uint64(e))
	}
	t.absorbBytes(t.buf[:24])
}

func (t *transcript) absorbInt(v int) {
	binary.LittleEndian.PutUint64(t.buf[:8], uint64(v))
	t.absorbBytes(t.buf[:8])
}

// challenge derives the next field element.
func (t *transcript) challenge() Elem {
	t.buf[0] = 0xC4
	t.absorbBytes(t.buf[:1])
	return reduce(binary.LittleEndian.Uint64(t.state[:8]))
}

func (t *transcript) challenges(n int) []Elem {
	out := make([]Elem, n)
	for i := range out {
		out[i] = t.challenge()
	}
	return out
}

// digestElems hashes a field vector (the "commitment" to a public matrix;
// verifier and prover both possess the matrices, the hash just binds the
// transcript to them).
func digestElems(es []Elem) [32]byte {
	h := sha256.New()
	var buf [512]byte
	for len(es) > 0 {
		n := min(len(es), len(buf)/8)
		for i, e := range es[:n] {
			binary.LittleEndian.PutUint64(buf[8*i:], uint64(e))
		}
		h.Write(buf[:8*n])
		es = es[n:]
	}
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// RoundPoly is one sum-check round: the quadratic g evaluated at 0, 1, 2.
type RoundPoly [3]Elem

// Proof is a non-interactive sum-check proof for one matrix product.
type Proof struct {
	// M, K, N are the padded dimensions.
	M, K, N int
	// Rounds holds log₂(K) round polynomials.
	Rounds []RoundPoly
}

// SizeBytes returns the wire size of the proof (3 field elements per
// round plus the dimension header) — exactly what MarshalBinary emits.
func (p *Proof) SizeBytes() int { return 12 + 24*len(p.Rounds) }

// Stats counts field multiplications on each side — the cost model E10
// reports. DirectMuls is what re-executing the product would cost.
// HashedElems counts field elements fed through the transcript's matrix
// digests: the dominant non-arithmetic verifier cost, and the term a
// prepared-weights verification amortizes away (see PrepareWeights).
type Stats struct {
	ProverMuls   int64
	VerifierMuls int64
	DirectMuls   int64
	HashedElems  int64
	ProofBytes   int
}

// checkOperands validates the prover/verifier operand shapes shared by
// every entry point.
func checkOperands(a []int32, m, k int, lb, n int) error {
	if m < 1 || k < 1 || n < 1 {
		return fmt.Errorf("verify: dimensions (%d×%d)×(%d×%d) must be positive", m, k, k, n)
	}
	if len(a) != m*k || lb != k*n {
		return fmt.Errorf("verify: matrix sizes %d,%d do not match dims (%d×%d)×(%d×%d)", len(a), lb, m, k, k, n)
	}
	return nil
}

// ProveMatMul computes C = A×B over the field and produces a sum-check
// proof that C is correct. a is m×k and b is k×n (int32, row-major,
// arbitrary positive dimensions — padding is internal). It returns the
// unpadded product as int64s, the proof and the prover-side stats.
func ProveMatMul(a []int32, m, k int, b []int32, n int) ([]int64, *Proof, Stats, error) {
	return ProveMatMulCtx(nil, a, m, k, b, n)
}

// ProveMatMulCtx is ProveMatMul with an application context bound into
// the Fiat-Shamir transcript. A proof made under one context never
// verifies under another, which is what lets settlement bind a proof to
// one (voucher, charge, chain entry, model version) and reject replays.
// A nil or empty context produces exactly ProveMatMul's transcript.
func ProveMatMulCtx(ctx []byte, a []int32, m, k int, b []int32, n int) ([]int64, *Proof, Stats, error) {
	if err := checkOperands(a, m, k, len(b), n); err != nil {
		return nil, nil, Stats{}, err
	}
	pw, err := PrepareWeights(b, k, n)
	if err != nil {
		return nil, nil, Stats{}, err
	}
	c, proof, stats, err := ProveMatMulPrepared(ctx, a, m, pw)
	// The one-shot path pays the weight-matrix digest a prepared prover
	// amortizes across a settlement report.
	stats.HashedElems += int64(pw.kp) * int64(pw.np)
	return c, proof, stats, err
}

// ProveMatMulPrepared is ProveMatMulCtx against a pre-encoded weight
// matrix: the padding and transcript digest of B — the same for every
// charge a model version serves — are reused from pw instead of being
// recomputed per proof. Everything that depends on this proof's own A
// and C (their digests, the point challenges r1 and r2, the folds) is
// still derived here, so the proof is byte-identical to ProveMatMulCtx's.
func ProveMatMulPrepared(ctx []byte, a []int32, m int, pw *PreparedWeights) ([]int64, *Proof, Stats, error) {
	if pw == nil {
		return nil, nil, Stats{}, fmt.Errorf("verify: nil prepared weights")
	}
	k, n := pw.K, pw.N
	if m < 1 || len(a) != m*k {
		return nil, nil, Stats{}, fmt.Errorf("verify: input size %d does not match dims %d×%d", len(a), m, k)
	}
	af, mp, kp := padMatrix(a, m, k)
	np := pw.np
	cf := pw.matMul(af, m, mp)
	stats := Stats{ProverMuls: int64(mp) * int64(kp) * int64(np), DirectMuls: int64(mp) * int64(kp) * int64(np)}
	stats.HashedElems = int64(mp)*int64(kp) + int64(mp)*int64(np)

	tr := newTranscript("matmul")
	if len(ctx) > 0 {
		tr.absorbBytes(ctx)
	}
	tr.absorbInt(mp)
	tr.absorbInt(kp)
	tr.absorbInt(np)
	da, dc := digestElems(af), digestElems(cf)
	tr.absorbBytes(da[:])
	tr.absorbBytes(pw.db[:])
	tr.absorbBytes(dc[:])

	r1 := tr.challenges(log2(mp))
	r2 := tr.challenges(log2(np))

	u, err := foldRows(af, mp, kp, r1) // Ã(r1, ·), length kp
	if err != nil {
		return nil, nil, stats, err
	}
	v := pw.foldCols(r2) // B̃(·, r2), length kp
	stats.ProverMuls += int64(mp)*int64(kp) + int64(kp)*int64(np)

	rounds := log2(kp)
	proof := &Proof{M: mp, K: kp, N: np, Rounds: make([]RoundPoly, 0, rounds)}
	for round := 0; round < rounds; round++ {
		half := len(u) / 2
		var g0, g1, g2 Elem
		for j := 0; j < half; j++ {
			u0, u1 := u[j], u[j+half]
			v0, v1 := v[j], v[j+half]
			g0 = Add(g0, Mul(u0, v0))
			g1 = Add(g1, Mul(u1, v1))
			// g(2) = (2u1−u0)(2v1−v0)
			u2 := Sub(Add(u1, u1), u0)
			v2 := Sub(Add(v1, v1), v0)
			g2 = Add(g2, Mul(u2, v2))
		}
		stats.ProverMuls += int64(3 * half)
		rp := RoundPoly{g0, g1, g2}
		proof.Rounds = append(proof.Rounds, rp)
		tr.absorbRound(rp)
		rho := tr.challenge()
		// Fold u and v with the challenge, in place: entry j reads only
		// itself and entry j+half.
		for j := 0; j < half; j++ {
			u[j] = Add(u[j], Mul(rho, Sub(u[j+half], u[j])))
			v[j] = Add(v[j], Mul(rho, Sub(v[j+half], v[j])))
		}
		stats.ProverMuls += int64(2 * half)
		u, v = u[:half], v[:half]
	}
	stats.ProofBytes = proof.SizeBytes()

	// Unpad the result.
	out := make([]int64, m*n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			out[i*n+j] = cf[i*np+j].Int64()
		}
	}
	return out, proof, stats, nil
}

// evalQuadratic interpolates g from its values at 0, 1, 2 and evaluates
// at t: g(t) = g0·(t−1)(t−2)/2 − g1·t(t−2) + g2·t(t−1)/2.
func evalQuadratic(g RoundPoly, t Elem) Elem {
	t1 := Sub(t, 1)
	t2 := Sub(t, 2)
	term0 := Mul(Mul(g[0], Mul(t1, t2)), inv2)
	term1 := Neg(Mul(g[1], Mul(t, t2)))
	term2 := Mul(Mul(g[2], Mul(t, t1)), inv2)
	return Add(Add(term0, term1), term2)
}

// VerifyMatMul checks a proof that c = a×b. The verifier holds a, b and
// the claimed c (as the application does: a is its input, b its model,
// c the device's answer); its work is O(m·k + k·n + m·n) instead of
// O(m·n·k).
func VerifyMatMul(a []int32, m, k int, b []int32, n int, c []int64, proof *Proof) (bool, Stats, error) {
	return VerifyMatMulCtx(nil, a, m, k, b, n, c, proof)
}

// VerifyMatMulCtx is VerifyMatMul under an application context; the proof
// must have been produced by ProveMatMulCtx under the identical context.
func VerifyMatMulCtx(ctx []byte, a []int32, m, k int, b []int32, n int, c []int64, proof *Proof) (bool, Stats, error) {
	if err := checkOperands(a, m, k, len(b), n); err != nil {
		return false, Stats{}, err
	}
	pw, err := PrepareWeights(b, k, n)
	if err != nil {
		return false, Stats{}, err
	}
	ok, stats, err := VerifyMatMulPrepared(ctx, a, m, pw, c, proof)
	// The one-shot path pays the weight-matrix digest a prepared class
	// amortizes across a settlement window.
	stats.HashedElems += int64(pw.kp) * int64(pw.np)
	return ok, stats, err
}

// VerifyMatMulPrepared is VerifyMatMulCtx against a pre-encoded weight
// matrix: the padding and transcript digest of B — the dominant per-proof
// cost when one model class settles many queries — are reused from pw
// instead of being recomputed.
func VerifyMatMulPrepared(ctx []byte, a []int32, m int, pw *PreparedWeights, c []int64, proof *Proof) (bool, Stats, error) {
	if pw == nil {
		return false, Stats{}, fmt.Errorf("verify: nil prepared weights")
	}
	k, n := pw.K, pw.N
	if m < 1 || len(a) != m*k {
		return false, Stats{}, fmt.Errorf("verify: input size %d does not match dims %d×%d", len(a), m, k)
	}
	if len(c) != m*n {
		return false, Stats{}, fmt.Errorf("verify: result size %d, want %d", len(c), m*n)
	}
	af, mp, _ := padMatrix(a, m, k)
	return verifyLifted(ctx, af, padResult(c, m, n, mp, pw.np), mp, pw, proof)
}

// padResult embeds a claimed m×n product into the mp×np field matrix.
func padResult(c []int64, m, n, mp, np int) []Elem {
	cf := make([]Elem, mp*np)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			cf[i*np+j] = FromInt64(c[i*n+j])
		}
	}
	return cf
}

// verifyLifted is the sum-check verifier over operands already lifted
// and padded: af is mp×pw.kp, cf the claimed mp×pw.np product.
func verifyLifted(ctx []byte, af, cf []Elem, mp int, pw *PreparedWeights, proof *Proof) (bool, Stats, error) {
	if proof == nil {
		return false, Stats{}, fmt.Errorf("verify: nil proof")
	}
	kp, np := pw.kp, pw.np
	if proof.M != mp || proof.K != kp || proof.N != np {
		return false, Stats{}, fmt.Errorf("verify: proof dims %dx%dx%d do not match %dx%dx%d", proof.M, proof.K, proof.N, mp, kp, np)
	}
	if len(proof.Rounds) != log2(kp) {
		return false, Stats{}, fmt.Errorf("verify: proof has %d rounds, want %d", len(proof.Rounds), log2(kp))
	}
	stats := Stats{DirectMuls: int64(mp) * int64(kp) * int64(np), ProofBytes: proof.SizeBytes()}
	stats.HashedElems = int64(mp)*int64(kp) + int64(mp)*int64(np)

	tr := newTranscript("matmul")
	if len(ctx) > 0 {
		tr.absorbBytes(ctx)
	}
	tr.absorbInt(mp)
	tr.absorbInt(kp)
	tr.absorbInt(np)
	da, dc := digestElems(af), digestElems(cf)
	tr.absorbBytes(da[:])
	tr.absorbBytes(pw.db[:])
	tr.absorbBytes(dc[:])

	// The point challenges r1, r2 stay per-proof: they are derived after
	// the transcript absorbs this proof's own C digest. Sharing them
	// across a class would let a prover pick a false C agreeing with the
	// true product's extension at the known point — the only sound
	// class-level sharing is of the weight encoding (here) and of the
	// Freivalds pre-screen projection (BatchVerifier).
	r1 := tr.challenges(log2(mp))
	r2 := tr.challenges(log2(np))

	// Claim: C̃(r1, r2) — the verifier evaluates it from the claimed C.
	claim, err := evalMLE(cf, mp, np, r1, r2)
	if err != nil {
		return false, stats, err
	}
	stats.VerifierMuls += int64(mp)*int64(np) + int64(np)

	rho := make([]Elem, 0, len(proof.Rounds))
	for _, g := range proof.Rounds {
		if Add(g[0], g[1]) != claim {
			return false, stats, nil
		}
		tr.absorbRound(g)
		ri := tr.challenge()
		rho = append(rho, ri)
		claim = evalQuadratic(g, ri)
		stats.VerifierMuls += 6
	}
	// Final check: claim must equal Ã(r1, ρ)·B̃(ρ, r2), which the
	// verifier evaluates itself in O(m·k + k·n).
	ua, err := evalMLE(af, mp, kp, r1, rho)
	if err != nil {
		return false, stats, err
	}
	vbAt, err := foldCols(pw.foldCols(r2), 1, kp, rho)
	if err != nil {
		return false, stats, err
	}
	stats.VerifierMuls += int64(mp)*int64(kp) + int64(kp)*int64(np) + int64(kp) + 1
	return claim == Mul(ua, vbAt[0]), stats, nil
}
