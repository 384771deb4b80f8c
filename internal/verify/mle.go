package verify

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

// fold evaluates a table's multilinear extension along the most
// significant variables of its index, one challenge each, MSB first, in
// place: each round folds the upper half of a into the lower, lo + r·(hi −
// lo), and the remaining prefix is returned. On a row-major M×K matrix
// log₂M challenges leave Ã(r, ·) in a[:K], and log₂K more leave Ã(r, c) in
// a[0]. a is the caller's scratch; a prepared matrix is never folded.
func fold(a []Elem, r ...Elem) []Elem {
	for _, ri := range r {
		lo, hi := a[:len(a)/2], a[len(a)/2:]
		for i := range lo {
			lo[i] = Add(lo[i], Mul(ri, Sub(hi[i], lo[i])))
		}
		a = lo
	}
	return a
}

// eqTable returns the 2^len(c) values eq(c, j) = Π_t (j_t·c_t +
// (1−j_t)(1−c_t)), bit 0 of the challenge order being the most
// significant bit of j — the order fold consumes challenges in. The
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
