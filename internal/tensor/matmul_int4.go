package tensor

import "fmt"

// Int4PackedLen returns the byte length of n int4 codes packed two per
// byte: ceil(n/2). An odd count leaves the final byte's high nibble as
// padding, which packing leaves zero.
func Int4PackedLen(n int) int { return (n + 1) / 2 }

// packInt4Into packs signed 4-bit codes two per byte into out,
// Int4PackedLen(len(codes)) zeroed bytes, low nibble first (the code at even
// index i lands in byte i/2's low nibble). Codes must lie in the int4
// two's-complement range [-8, 7]; anything wider cannot survive the round
// trip and is rejected rather than silently truncated. For an odd count
// the final high nibble stays zero, keeping the encoding canonical so
// equal codes always produce equal bytes.
func packInt4Into(out []byte, codes []int8) error {
	for i, c := range codes {
		if c < -8 || c > 7 {
			return fmt.Errorf("tensor: int4 code %d at index %d outside [-8,7]", c, i)
		}
		out[i>>1] |= byte(c) & 0xF << (4 * (i & 1))
	}
	return nil
}

// PackInt4Matrix packs a [rows, cols] row-major code matrix with each row
// byte-aligned (rows start on fresh bytes, odd cols pad the last nibble) —
// the layout MatMulInt4 reads, so single rows stay directly sliceable.
// Rows are packed in place: one allocation.
func PackInt4Matrix(codes []int8, rows, cols int) ([]byte, error) {
	if len(codes) != rows*cols {
		return nil, fmt.Errorf("tensor: PackInt4Matrix got %d codes for [%d,%d]", len(codes), rows, cols)
	}
	rb := Int4PackedLen(cols)
	out := make([]byte, rows*rb)
	for r := 0; r < rows; r++ {
		if err := packInt4Into(out[r*rb:(r+1)*rb], codes[r*cols:(r+1)*cols]); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// MatMulInt4 computes dst[i,j] = rowScales[i] * colScales[j] * Σ_p a[i,p]·b[p,j]
// where b is a [k,n] matrix of signed 4-bit codes packed two per byte with
// byte-aligned rows (PackInt4Matrix layout) and a is int8 ([m,k]
// row-major), accumulated exactly in int32. It decodes b to int8 codes on
// every call and runs MatMulInt8, which widens them through InterleaveK
// for MatMulInterleaved, the kernel a QModel serves int4 weights on,
// widened once, at build; so the result is bit-identical to a naive scalar
// triple loop.
func MatMulInt4(dst []float32, a []int8, bPacked []byte, m, k, n int, rowScales, colScales []float32) {
	rb := Int4PackedLen(n)
	codes := make([]int8, k*n)
	for p := 0; p < k; p++ {
		row := codes[p*n : p*n+n]
		for j := range row {
			row[j] = int8(bPacked[p*rb+j>>1]<<(4-4*(j&1))) >> 4
		}
	}
	MatMulInt8(dst, a, codes, m, k, n, rowScales, colScales)
}
