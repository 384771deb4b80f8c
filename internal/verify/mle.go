package verify

import "fmt"

// Multilinear-extension helpers. A matrix with power-of-two dimensions
// M×K is the table of a function on log₂M + log₂K boolean variables; its
// multilinear extension Ã is the unique multilinear polynomial agreeing
// with the table on the hypercube. The sum-check verifier only ever needs
// Ã at random points, which "folding" computes in time linear in the
// table instead of exponential interpolation.

// nextPow2 returns the smallest power of two ≥ n (and ≥ 1).
func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// log2 returns log₂(n) for a power of two.
func log2(n int) int {
	k := 0
	for 1<<k < n {
		k++
	}
	return k
}

// padMatrix embeds an m×k int32 matrix (row-major) into an M×K field
// matrix with power-of-two dimensions, zero-filled.
func padMatrix(a []int32, m, k int) ([]Elem, int, int) {
	mp, kp := nextPow2(m), nextPow2(k)
	out := make([]Elem, mp*kp)
	for i := 0; i < m; i++ {
		for j := 0; j < k; j++ {
			out[i*kp+j] = FromInt64(int64(a[i*k+j]))
		}
	}
	return out, mp, kp
}

// foldRows reduces an M×K matrix along its row variables at point
// r ∈ F^log₂(M), returning the K-vector Ã(r, ·) restricted to column
// hypercube points. Variables are consumed most-significant-bit first.
func foldRows(a []Elem, m, k int, r []Elem) ([]Elem, error) {
	if len(r) != log2(m) {
		return nil, fmt.Errorf("verify: foldRows got %d challenges for %d rows", len(r), m)
	}
	cur := append([]Elem(nil), a...)
	rows := m
	for _, ri := range r {
		half := rows / 2
		next := make([]Elem, half*k)
		for i := 0; i < half; i++ {
			for j := 0; j < k; j++ {
				lo := cur[i*k+j]
				hi := cur[(i+half)*k+j]
				// lo + r·(hi − lo)
				next[i*k+j] = Add(lo, Mul(ri, Sub(hi, lo)))
			}
		}
		cur = next
		rows = half
	}
	return cur, nil
}

// foldCols reduces a K×N matrix along its column variables at point
// c ∈ F^log₂(N), returning the K-vector Ã(·, c).
func foldCols(a []Elem, k, n int, c []Elem) ([]Elem, error) {
	if len(c) != log2(n) {
		return nil, fmt.Errorf("verify: foldCols got %d challenges for %d cols", len(c), n)
	}
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
	return cur, nil
}

// evalMLE evaluates the multilinear extension of an M×K matrix at
// (r, c) ∈ F^log₂(M) × F^log₂(K) — foldRows then foldCols on the
// remaining single row.
func evalMLE(a []Elem, m, k int, r, c []Elem) (Elem, error) {
	row, err := foldRows(a, m, k, r)
	if err != nil {
		return 0, err
	}
	point, err := foldCols(row, 1, k, c)
	if err != nil {
		return 0, err
	}
	return point[0], nil
}

// eqTable returns the 2^len(c) values eq(c, j) = Π_t (j_t·c_t +
// (1−j_t)(1−c_t)), bit 0 of the challenge order being the most
// significant bit of j — the order foldCols consumes challenges in. The
// multilinear extension of a row at c is its dot product with this
// table, which is how a whole matrix is folded without copying it.
func eqTable(c []Elem) []Elem {
	eq := make([]Elem, 1<<len(c))
	eq[0] = 1
	for t, ct := range c {
		// Double the table in place, from the back so no entry is
		// overwritten before it is read.
		for i := 1<<t - 1; i >= 0; i-- {
			hi := Mul(eq[i], ct)
			eq[2*i], eq[2*i+1] = Sub(eq[i], hi), hi
		}
	}
	return eq
}
