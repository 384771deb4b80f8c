package verify

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/big"
	"testing"

	"tinymlops/internal/engine"
	"tinymlops/internal/tensor"
)

// Prover and verifier share the dot kernel, the eq table and the prepared
// encoding, so a wrong kernel still round-trips. The tests here pin the
// new code against things it does not share: proof bytes recorded at the
// commit before the prepared prover existed, the copying foldCols, and
// math/big.

// proofDigest is SHA-256 over the proof's wire bytes followed by the
// claimed product as little-endian int64s.
func proofDigest(t *testing.T, c []int64, proof *Proof) string {
	t.Helper()
	blob, err := proof.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	h.Write(blob)
	var b [8]byte
	for _, v := range c {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGoldenProofs asserts, for both prover entries, the digests the
// one-shot ProveMatMulCtx produced at the parent commit (recorded by
// running this table there). wide rows use full-range int32 operands.
func TestGoldenProofs(t *testing.T) {
	golden := []struct {
		seed      uint64 // one operand draw per shape, shared by its two rows
		m, k, n   int
		wide, ctx bool
		want      string
	}{
		{100, 1, 64, 256, false, false, "b1f41fe9dfc6ee2162685a6bc750e8827bf5e49ec78719622c21bdeeb4913618"},
		{100, 1, 64, 256, false, true, "4691816f81dd4617d60a76ac40812d5dcc4788c975973df3fcab4121608d2c97"},
		{101, 3, 10, 7, false, false, "854c293cddab4b72af1709fe37476f6b29575f80931cfb1420b1ab765ca9e0bc"},
		{101, 3, 10, 7, false, true, "3d9fcf2e6222b1a8bb13d70fcec4d61db0bdce21b98e27c9350158469be5e0a5"},
		{102, 16, 64, 256, false, false, "d740181529518d205b0c619a2f06aaa3b8a83052fdcae46219b7d99653d4e040"},
		{102, 16, 64, 256, false, true, "eca83f6d4bcbf8b1d9a5b18fc968fc871791a590b8c29fb0ddb4773b94644393"},
		{103, 1, 1, 1, false, false, "e4f47f9f1452e1d9d61041aee0bee2ad0c9e3ba55b18e0e2122d37ce8438238f"},
		{103, 1, 1, 1, false, true, "e4f47f9f1452e1d9d61041aee0bee2ad0c9e3ba55b18e0e2122d37ce8438238f"},
		{104, 3, 10, 7, true, false, "ff5103be8fdf174cd2158143b52d2132f270443226d3598b79f8e6470797db19"},
		{104, 3, 10, 7, true, true, "192d57731425ca374ba7aa276d2284425f5567222bd66d12ce7cf2434304ac81"},
	}
	for _, g := range golden {
		name := fmt.Sprintf("%dx%dx%d/wide=%v/ctx=%v", g.m, g.k, g.n, g.wide, g.ctx)
		rng := tensor.NewRNG(g.seed)
		a, b := randMat(rng, g.m*g.k), randMat(rng, g.k*g.n)
		if g.wide {
			for i := range a {
				a[i] = int32(rng.Uint64())
			}
			for i := range b {
				b[i] = int32(rng.Uint64())
			}
		}
		var ctx []byte
		if g.ctx {
			ctx = []byte("voucher-7/model-3/seq-41")
		}
		c, proof, _, err := ProveMatMulCtx(ctx, a, g.m, g.k, b, g.n)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := proofDigest(t, c, proof); got != g.want {
			t.Errorf("%s: ProveMatMulCtx digest %s, parent recorded %s", name, got, g.want)
		}
		pw, err := PrepareWeights(b, g.k, g.n)
		if err != nil {
			t.Fatal(err)
		}
		// Twice through one encoding: a proof must leave pw untouched.
		for rep := 0; rep < 2; rep++ {
			c, proof, _, err = ProveMatMulPrepared(ctx, a, g.m, pw)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if got := proofDigest(t, c, proof); got != g.want {
				t.Errorf("%s: ProveMatMulPrepared (use %d) digest %s, parent recorded %s", name, rep, got, g.want)
			}
		}
		if ok, _, err := VerifyMatMulPrepared(ctx, a, g.m, pw, c, proof); err != nil || !ok {
			t.Errorf("%s: golden proof rejected: %v %v", name, ok, err)
		}
	}
}

// fullRangeElems draws field elements over all of [0, p), with the
// extremes planted — int8 lifts never reach the high limbs.
func fullRangeElems(rng *tensor.RNG, n int) []Elem {
	out := make([]Elem, n)
	for i := range out {
		out[i] = reduce(rng.Uint64())
	}
	if n > 1 {
		out[0], out[n-1] = Elem(P-1), 0
	}
	return out
}

// TestEqTableFoldMatchesFoldCols: the no-copy column fold equals the
// copying reference on full-range matrices, at widths on both sides of
// the kernel's 32-term chunk.
func TestEqTableFoldMatchesFoldCols(t *testing.T) {
	rng := tensor.NewRNG(77)
	for _, n := range []int{1, 2, 31, 32, 33, 64, 256, 512} {
		for _, k := range []int{1, 3, 16} {
			pw := &PreparedWeights{K: k, N: n, kp: nextPow2(k), np: nextPow2(n)}
			pw.bf = fullRangeElems(rng, pw.kp*pw.np)
			c := fullRangeElems(rng, log2(pw.np))
			before := append([]Elem(nil), pw.bf...)
			want, err := foldCols(pw.bf, pw.kp, pw.np, c)
			if err != nil {
				t.Fatal(err)
			}
			got := pw.foldCols(c)
			if len(got) != len(want) {
				t.Fatalf("k=%d n=%d: fold length %d, want %d", k, n, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("k=%d n=%d row %d: eq-table fold %d, foldCols %d", k, n, i, got[i], want[i])
				}
			}
			for i := range before {
				if pw.bf[i] != before[i] {
					t.Fatalf("k=%d n=%d: fold wrote to the prepared matrix at %d", k, n, i)
				}
			}
		}
	}
}

// TestMatMulMatchesTermwise: the gathered-column product equals the
// reduce-every-term definition on full-range operands.
func TestMatMulMatchesTermwise(t *testing.T) {
	rng := tensor.NewRNG(78)
	for _, s := range [][3]int{{1, 64, 256}, {3, 10, 7}, {4, 33, 2}, {1, 1, 1}} {
		m, k, n := s[0], s[1], s[2]
		pw := &PreparedWeights{K: k, N: n, kp: nextPow2(k), np: nextPow2(n)}
		pw.bf = make([]Elem, pw.kp*pw.np)
		for p := 0; p < k; p++ {
			copy(pw.bf[p*pw.np:p*pw.np+n], fullRangeElems(rng, n))
		}
		mp := nextPow2(m)
		af := make([]Elem, mp*pw.kp)
		for i := 0; i < m; i++ {
			copy(af[i*pw.kp:i*pw.kp+k], fullRangeElems(rng, k))
		}
		got := pw.matMul(af, m, mp)
		for i := 0; i < mp; i++ {
			for j := 0; j < pw.np; j++ {
				var want Elem
				for p := 0; p < pw.kp; p++ {
					want = Add(want, Mul(af[i*pw.kp+p], pw.bf[p*pw.np+j]))
				}
				if got[i*pw.np+j] != want {
					t.Fatalf("%dx%dx%d cell (%d,%d): %d, want %d", m, k, n, i, j, got[i*pw.np+j], want)
				}
			}
		}
	}
}

// TestDotLazyReductionMatchesBig: rows of 1…600 copies of p−1 are the
// worst case for the 128-bit accumulator (its high limb overflows past 64
// unreduced terms); the chunked reduction must agree with math/big.
func TestDotLazyReductionMatchesBig(t *testing.T) {
	p := new(big.Int).SetUint64(P)
	sq := new(big.Int).SetUint64(P - 1)
	sq.Mul(sq, sq)
	row := make([]Elem, 600)
	for i := range row {
		row[i] = Elem(P - 1)
	}
	sum := new(big.Int)
	for n := 1; n <= len(row); n++ {
		sum.Add(sum, sq)
		want := new(big.Int).Mod(sum, p).Uint64()
		if got := dot(row[:n], row, 1); uint64(got) != want {
			t.Fatalf("dot of %d copies of p−1: %d, math/big says %d", n, got, want)
		}
	}
	// Mixed full-range terms, against the same oracle.
	rng := tensor.NewRNG(79)
	a, b := fullRangeElems(rng, 257), fullRangeElems(rng, 257)
	sum.SetUint64(0)
	for i := range a {
		sum.Add(sum, new(big.Int).Mul(new(big.Int).SetUint64(uint64(a[i])), new(big.Int).SetUint64(uint64(b[i]))))
	}
	if got, want := dot(a, b, 1), new(big.Int).Mod(sum, p).Uint64(); uint64(got) != want {
		t.Fatalf("dot of 257 random terms: %d, math/big says %d", got, want)
	}
}

// TestPreparedProofAllocs pins what one prepared proof of the settlement
// shape (1×256 · 256×64) allocates, so the per-proof scratch (in-place
// folds, the transcript's resident hasher, the chunked digests) cannot
// silently regress toward the 74 allocations of the one-shot prover it
// replaced.
func TestPreparedProofAllocs(t *testing.T) {
	a, b := settlementOperands(50)
	pw, err := PrepareWeights(b, settleK, settleN)
	if err != nil {
		t.Fatal(err)
	}
	ctx := bytes.Repeat([]byte{7}, 80)
	const pin = 14
	got := testing.AllocsPerRun(50, func() {
		if _, _, _, err := ProveMatMulPrepared(ctx, a, 1, pw); err != nil {
			t.Fatal(err)
		}
	})
	if got != pin {
		t.Fatalf("one prepared proof allocates %.0f times, pinned at %d", got, pin)
	}
}

// settleK and settleN are a deployment's proved layer at settlement: one
// quantized input row against a k×n weight matrix.
const settleK, settleN = 256, 64

func settlementOperands(seed uint64) (a, w []int32) {
	rng := tensor.NewRNG(seed)
	return randMat(rng, settleK), randMat(rng, settleK*settleN)
}

// TestSettlementAllocationPins pins the rest of settlement's proof path at
// its shape: the one-shot prover, which encodes and digests the weights
// each time; the one-shot verifier; and a 16-proof window through the
// batch verifier on two workers (the pool's goroutines are counted, so the
// worker count is fixed). The proof is 204 bytes.
func TestSettlementAllocationPins(t *testing.T) {
	a, w := settlementOperands(50)
	c, proof, _, err := ProveMatMul(a, 1, settleK, w, settleN)
	if err != nil {
		t.Fatal(err)
	}
	if got := proof.SizeBytes(); got != 204 {
		t.Errorf("proof is %d bytes, pinned at 204", got)
	}
	bv := NewBatchVerifier(engine.New(engine.Config{Workers: 2}))
	if err := bv.Prepare("class", w, settleK, settleN); err != nil {
		t.Fatal(err)
	}
	rng := tensor.NewRNG(52)
	items := make([]BatchItem, 16)
	for i := range items {
		ai := randMat(rng, settleK)
		ci, pi, _, err := ProveMatMul(ai, 1, settleK, w, settleN)
		if err != nil {
			t.Fatal(err)
		}
		items[i] = BatchItem{ClassID: "class", A: ai, M: 1, C: ci, Proof: pi}
	}
	for _, pin := range []struct {
		name string
		want float64
		op   func()
	}{
		{"ProveMatMul", 16, func() { ProveMatMul(a, 1, settleK, w, settleN) }},             //nolint:errcheck
		{"VerifyMatMul", 40, func() { VerifyMatMul(a, 1, settleK, w, settleN, c, proof) }}, //nolint:errcheck
		{"VerifyBatch of 16", 675, func() { bv.VerifyBatch(items) }},                       //nolint:errcheck
	} {
		if got := testing.AllocsPerRun(20, pin.op); got != pin.want {
			t.Errorf("%s allocates %.0f times, pinned at %.0f", pin.name, got, pin.want)
		}
	}
	results, _, err := bv.VerifyBatch(items)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if !r.OK {
			t.Fatalf("batch rejected honest proof %d: %v", i, r.Err)
		}
	}
}

// BenchmarkProveMatMulPrepared times the settlement prover at its shape.
// The end-to-end harness times the one-shot prover instead
// (verify.prove_us), so this figure is measured, not gated:
//
//	go test -run '^$' -bench ProveMatMulPrepared ./internal/verify
func BenchmarkProveMatMulPrepared(b *testing.B) {
	a, w := settlementOperands(50)
	pw, err := PrepareWeights(w, settleK, settleN)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := ProveMatMulPrepared(nil, a, 1, pw); err != nil {
			b.Fatal(err)
		}
	}
}
