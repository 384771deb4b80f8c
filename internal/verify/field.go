package verify

import "math/bits"

// Elem is an element of F_p, p = 2⁶¹−1. Values are kept in [0, p).
type Elem uint64

// P is the field modulus, the Mersenne prime 2⁶¹−1.
const P uint64 = (1 << 61) - 1

// reduce maps an arbitrary uint64 into [0, p).
func reduce(x uint64) Elem {
	x = (x & P) + (x >> 61)
	if x >= P {
		x -= P
	}
	return Elem(x)
}

// FromInt64 encodes a signed integer: negatives map to p−|v|.
func FromInt64(v int64) Elem {
	if v >= 0 {
		return reduce(uint64(v))
	}
	m := reduce(uint64(-v))
	if m == 0 {
		return 0
	}
	return Elem(P) - m
}

// Int64 decodes an element to a signed integer, interpreting values above
// p/2 as negative. It is exact as long as |v| < p/2.
func (e Elem) Int64() int64 {
	if uint64(e) > P/2 {
		return -int64(P - uint64(e))
	}
	return int64(e)
}

// Add returns a + b mod p.
func Add(a, b Elem) Elem {
	s := uint64(a) + uint64(b)
	if s >= P {
		s -= P
	}
	return Elem(s)
}

// Sub returns a − b mod p.
func Sub(a, b Elem) Elem {
	if a >= b {
		return a - b
	}
	return Elem(uint64(a) + P - uint64(b))
}

// Neg returns −a mod p.
func Neg(a Elem) Elem {
	if a == 0 {
		return 0
	}
	return Elem(P - uint64(a))
}

// Mul returns a·b mod p using the Mersenne reduction
// 2⁶⁴ ≡ 2³ (mod 2⁶¹−1).
func Mul(a, b Elem) Elem {
	hi, lo := bits.Mul64(uint64(a), uint64(b))
	// lo + 8·hi fits: hi < 2⁵⁸ for a,b < 2⁶¹.
	loRed := (lo & P) + (lo >> 61)
	sum := loRed + hi<<3
	return reduce(sum)
}

// dotChunk is the longest run of products dot accumulates before it
// reduces. A product of two elements is below 2¹²², so its high limb is
// below 2⁵⁸; 32 of them plus 32 carries stay below 2⁶⁴, 64 do not.
const dotChunk = 32

// dot returns Σ a[i]·b[i·stride] mod p over len(a) terms — the one
// inner-product kernel behind the field matrix product (stride = a row of
// B, so a column is read in place) and the column fold B̃(·, r) (stride
// 1). Products are summed in 128 bits and reduced once per dotChunk
// terms, not once per term.
func dot(a, b []Elem, stride int) Elem {
	var acc Elem
	off := 0
	for len(a) > 0 {
		n := min(len(a), dotChunk)
		var hi, lo uint64
		for _, x := range a[:n] {
			h, l := bits.Mul64(uint64(x), uint64(b[off]))
			off += stride
			var carry uint64
			lo, carry = bits.Add64(lo, l, 0)
			hi, _ = bits.Add64(hi, h, carry)
		}
		// hi·2⁶⁴ + lo ≡ 8·hi + lo; hi is reduced first so 8·hi fits.
		acc = Add(acc, Add(reduce(lo), reduce(uint64(reduce(hi))<<3)))
		a = a[n:]
	}
	return acc
}

// Pow returns a^e mod p by square and multiply.
func Pow(a Elem, e uint64) Elem {
	result := Elem(1)
	base := a
	for e > 0 {
		if e&1 == 1 {
			result = Mul(result, base)
		}
		base = Mul(base, base)
		e >>= 1
	}
	return result
}

// Inv returns the multiplicative inverse via Fermat (a^(p−2)); Inv(0) is 0.
func Inv(a Elem) Elem {
	if a == 0 {
		return 0
	}
	return Pow(a, P-2)
}

// inv2 is the constant 2⁻¹ mod p, used in quadratic interpolation.
var inv2 = Inv(2)
