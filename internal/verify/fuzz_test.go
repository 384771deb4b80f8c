package verify

import (
	"slices"
	"testing"

	"tinymlops/internal/tensor"
)

// FuzzProveVerifyMatMul drives the prove/verify pair from a fuzzed seed
// and mutation selector: every honestly produced proof must verify, and
// the three canonical tamperings — a mutated round polynomial, a flipped
// claimed sum, a truncated proof — must all be rejected (false or error,
// never a panic, never a pass). Every case is also proven through
// ProveMatMulPrepared, which must match the one-shot prover exactly.
func FuzzProveVerifyMatMul(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint8(2), uint8(3), uint8(4))
	f.Add(uint64(42), uint8(1), uint8(1), uint8(8), uint8(1))
	f.Add(uint64(7), uint8(2), uint8(3), uint8(5), uint8(6))
	f.Add(uint64(1001), uint8(3), uint8(4), uint8(16), uint8(2))
	f.Add(uint64(99), uint8(4), uint8(2), uint8(7), uint8(7))
	f.Fuzz(func(t *testing.T, seed uint64, mutate, rm, rk, rn uint8) {
		m := 1 + int(rm)%4
		k := 1 + int(rk)%17
		n := 1 + int(rn)%9
		rng := tensor.NewRNG(seed)
		a := randMat(rng, m*k)
		b := randMat(rng, k*n)
		ctx := []byte{byte(seed), byte(seed >> 8)}
		c, proof, _, err := ProveMatMulCtx(ctx, a, m, k, b, n)
		if err != nil {
			t.Fatalf("prove failed on valid operands: %v", err)
		}
		if ok, _, err := VerifyMatMulCtx(ctx, a, m, k, b, n, c, proof); err != nil || !ok {
			t.Fatalf("honest proof rejected: %v %v", ok, err)
		}
		// The prepared entry must produce the same bytes and the same
		// product from a shared encoding.
		pw, err := PrepareWeights(b, k, n)
		if err != nil {
			t.Fatalf("prepare failed on valid weights: %v", err)
		}
		pc, pproof, _, err := ProveMatMulPrepared(ctx, a, m, pw)
		if err != nil {
			t.Fatalf("prepared prove failed on valid operands: %v", err)
		}
		if !slices.Equal(pc, c) || pproof.M != proof.M || pproof.K != proof.K || pproof.N != proof.N || !slices.Equal(pproof.Rounds, proof.Rounds) {
			t.Fatalf("prepared prover diverged from the one-shot prover: %+v %v vs %+v %v", pproof, pc, proof, c)
		}

		switch mutate % 4 {
		case 0: // honest case already checked above
		case 1: // mutate one round polynomial coefficient
			if len(proof.Rounds) == 0 {
				// k padded to 1 leaves no rounds; corrupt the claim instead.
				c[0] += 1
			} else {
				i := int(seed) % len(proof.Rounds)
				j := int(seed>>16) % 3
				proof.Rounds[i][j] = Add(proof.Rounds[i][j], 1+Elem(seed%1000))
			}
			if ok, _, _ := VerifyMatMulCtx(ctx, a, m, k, b, n, c, proof); ok {
				t.Fatal("mutated round polynomial accepted")
			}
		case 2: // flip the claimed sum (corrupt a result cell)
			i := int(seed) % len(c)
			c[i] += 1 + int64(seed%4096)
			if ok, _, _ := VerifyMatMulCtx(ctx, a, m, k, b, n, c, proof); ok {
				t.Fatal("flipped claimed sum accepted")
			}
		case 3: // truncate the proof
			if len(proof.Rounds) > 0 {
				proof.Rounds = proof.Rounds[:len(proof.Rounds)-1]
			} else {
				proof.K *= 2
			}
			if ok, _, _ := VerifyMatMulCtx(ctx, a, m, k, b, n, c, proof); ok {
				t.Fatal("truncated proof accepted")
			}
		}

		// Serialization must survive any proof this path produced.
		blob, err := proof.MarshalBinary()
		if err != nil {
			return
		}
		var back Proof
		if err := back.UnmarshalBinary(blob); err != nil {
			t.Fatalf("round-trip of marshaled proof failed: %v", err)
		}
	})
}
