package verify

import (
	"fmt"
	"slices"
	"testing"

	"tinymlops/internal/tensor"
)

// The copying folds: every round makes a fresh slice and the input is
// never written. They are the reference the in-place fold is held to, as a
// row fold, a column fold of one row and an evaluation of both.

func foldRowsRef(a []Elem, m, k int, r []Elem) []Elem {
	cur := append([]Elem(nil), a...)
	rows := m
	for _, ri := range r {
		half := rows / 2
		next := make([]Elem, half*k)
		for i := 0; i < half; i++ {
			for j := 0; j < k; j++ {
				lo := cur[i*k+j]
				hi := cur[(i+half)*k+j]
				next[i*k+j] = Add(lo, Mul(ri, Sub(hi, lo)))
			}
		}
		cur = next
		rows = half
	}
	return cur
}

func foldColsRef(a []Elem, k, n int, c []Elem) []Elem {
	cur := append([]Elem(nil), a...)
	cols := n
	for _, ci := range c {
		half := cols / 2
		next := make([]Elem, k*half)
		for i := 0; i < k; i++ {
			for j := 0; j < half; j++ {
				lo := cur[i*cols+j]
				hi := cur[i*cols+j+half]
				next[i*half+j] = Add(lo, Mul(ci, Sub(hi, lo)))
			}
		}
		cur = next
		cols = half
	}
	return cur
}

func evalMLERef(a []Elem, m, k int, r, c []Elem) Elem {
	return foldColsRef(foldRowsRef(a, m, k, r), 1, k, c)[0]
}

// foldDims are the logical dimensions the fold checks run at: powers of
// two and their neighbours, on both sides of dot's 32-term chunk.
var foldDims = []int{1, 2, 3, 16, 31, 32, 33, 256}

// checkFoldInPlace holds every fold settlement runs to the copying
// reference, on an mp×kp matrix A and a kp×np prepared matrix B of
// full-range elements (mp, kp, np the padded m, k, n): the prover's row
// fold Ã(r1, ·), B̃(·, r2) from the prepared matrix, its fold B̃(ρ, r2),
// and the evaluation Ã(r1, ρ). B must come out unwritten.
func checkFoldInPlace(t *testing.T, rng *tensor.RNG, m, k, n int) {
	t.Helper()
	mp, kp, np := nextPow2(m), nextPow2(k), nextPow2(n)
	a := fullRangeElems(rng, mp*kp)
	pw := &PreparedWeights{K: k, N: n, kp: kp, np: np, bf: fullRangeElems(rng, kp*np)}
	bf := slices.Clone(pw.bf)
	r1 := fullRangeElems(rng, log2(mp))
	r2 := fullRangeElems(rng, log2(np))
	rho := fullRangeElems(rng, log2(kp))
	name := fmt.Sprintf("%dx%dx%d", m, k, n)

	if got, want := fold(slices.Clone(a), r1...), foldRowsRef(a, mp, kp, r1); !slices.Equal(got, want) {
		t.Fatalf("%s: row fold in place differs from the reference", name)
	}
	want := foldColsRef(pw.bf, kp, np, r2)
	v := pw.foldCols(r2)
	if !slices.Equal(v, want) {
		t.Fatalf("%s: prepared column fold differs from the reference", name)
	}
	if got, ref := fold(v, rho...), foldColsRef(want, 1, kp, rho); !slices.Equal(got, ref) {
		t.Fatalf("%s: B̃(ρ, r2) in place %v, reference %v", name, got, ref)
	}
	if got, ref := fold(slices.Clone(a), append(r1, rho...)...), evalMLERef(a, mp, kp, r1, rho); len(got) != 1 || got[0] != ref {
		t.Fatalf("%s: Ã(r1, ρ) in place %v, reference %d", name, got, ref)
	}
	if !slices.Equal(pw.bf, bf) {
		t.Fatalf("%s: a fold wrote to the prepared matrix", name)
	}
}

// TestFoldInPlaceMatchesReference runs checkFoldInPlace over every shape
// of foldDims, m > 1 row folds included (settlement proves one row), and
// then proves and verifies full-range int32 operands through one prepared
// encoding, which must come out of both sides unwritten.
func TestFoldInPlaceMatchesReference(t *testing.T) {
	rng := tensor.NewRNG(80)
	for _, m := range foldDims {
		for _, k := range foldDims {
			for _, n := range foldDims {
				checkFoldInPlace(t, rng, m, k, n)

				a, b := make([]int32, m*k), make([]int32, k*n)
				for i := range a {
					a[i] = int32(rng.Uint64())
				}
				for i := range b {
					b[i] = int32(rng.Uint64())
				}
				pw, err := PrepareWeights(b, k, n)
				if err != nil {
					t.Fatal(err)
				}
				bf := slices.Clone(pw.bf)
				c, proof, _, err := ProveMatMulPrepared(nil, a, m, pw)
				if err != nil {
					t.Fatal(err)
				}
				if ok, _, err := VerifyMatMulPrepared(nil, a, m, pw, c, proof); err != nil || !ok {
					t.Fatalf("%dx%dx%d: honest proof rejected: %v %v", m, k, n, ok, err)
				}
				if !slices.Equal(pw.bf, bf) {
					t.Fatalf("%dx%dx%d: proving or verifying wrote to the prepared matrix", m, k, n)
				}
			}
		}
	}
}

// FuzzFoldInPlace runs checkFoldInPlace at fuzzed shapes and elements.
func FuzzFoldInPlace(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint8(4), uint8(7))
	f.Add(uint64(2), uint8(16), uint8(31), uint8(2))
	f.Add(uint64(3), uint8(32), uint8(0), uint8(32))
	f.Add(uint64(4), uint8(2), uint8(255), uint8(15))
	f.Fuzz(func(t *testing.T, seed uint64, m, k, n uint8) {
		checkFoldInPlace(t, tensor.NewRNG(seed), 1+int(m)%64, 1+int(k), 1+int(n)%64)
	})
}
