package tensor

import "fmt"

// Int4PackedLen returns the byte length of n int4 codes packed two per
// byte: ceil(n/2). An odd count leaves the final byte's high nibble as
// padding, which the codec requires to be zero.
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

// UnpackInt4 expands packed bytes back into count signed codes. It rejects
// buffers whose length does not match Int4PackedLen(count) — truncated or
// oversized payloads must not decode — and, for odd counts, a nonzero pad
// nibble (a non-canonical encoding PackInt4Matrix never emits).
func UnpackInt4(packed []byte, count int) ([]int8, error) {
	if count < 0 {
		return nil, fmt.Errorf("tensor: negative int4 code count %d", count)
	}
	if len(packed) != Int4PackedLen(count) {
		return nil, fmt.Errorf("tensor: packed int4 buffer has %d bytes, want %d for %d codes",
			len(packed), Int4PackedLen(count), count)
	}
	if count&1 == 1 && packed[len(packed)-1]>>4 != 0 {
		return nil, fmt.Errorf("tensor: packed int4 buffer has nonzero pad nibble")
	}
	out := make([]int8, count)
	for i := range out {
		by := packed[i>>1]
		if i&1 == 0 {
			out[i] = int8(by<<4) >> 4
		} else {
			out[i] = int8(by) >> 4
		}
	}
	return out, nil
}

// PackInt4Matrix packs a [rows, cols] row-major code matrix with each row
// byte-aligned (rows start on fresh bytes, odd cols pad the last nibble) —
// the layout MatMulInt4 and MatMulInt4LHS read, so single rows stay
// directly sliceable. Rows are packed in place: one allocation.
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
// row-major), accumulated exactly in int32. It widens b to InterleaveK's
// layout on every call and runs MatMulInterleaved, which is how a QModel
// serves int4 dense weights, widened once, at build; so the result is
// bit-identical to a naive scalar triple loop at any worker count. Each
// |x·code| ≤ 128·8, so the int32 sums stay exact while k < 2^21.
func MatMulInt4(dst []float32, a []int8, bPacked []byte, m, k, n int, rowScales, colScales []float32) {
	rb := Int4PackedLen(n)
	w := make([]int16, (k+1)&^1*n)
	for p := 0; p < k; p++ {
		at := p>>1*2*n + p&1
		for j, by := range bPacked[p*rb : p*rb+rb] {
			w[at+4*j] = int16(int8(by<<4) >> 4)
			if 2*j+1 < n {
				w[at+4*j+2] = int16(int8(by) >> 4)
			}
		}
	}
	MatMulInterleaved(dst, a, w, m, k, n, rowScales, colScales)
}

// int4KPanel sizes the LHS kernel's decoded weight-segment buffer.
const int4KPanel = 128

// MatMulInt4LHS is MatMulInt4 with the packed operand on the left:
// dst[i,j] = rowScales[i] * colScales[j] * Σ_p a[i,p]·b[p,j] where a is a
// [m,k] packed int4 matrix (PackInt4Matrix layout) and b is int8 — the
// convolution layout, where the per-output-channel weight matrix is the
// 4-bit operand and the int8 im2col columns are on the right. The nibble
// decode happens once per k-step (outside the inner j-loop), and the same
// exact-int32 bit-identity argument as MatMulInt8 applies.
func MatMulInt4LHS(dst []float32, aPacked []byte, b []int8, m, k, n int, rowScales, colScales []float32) {
	// Same closure-avoidance shape as MatMulInt8 (see comment there).
	if m*n*k < parallelThreshold || poolDepth.Load() > 0 {
		matmulInt4LHSRows(dst, aPacked, b, 0, m, k, n, rowScales, colScales)
		return
	}
	Parallel(m, func(lo, hi int) {
		matmulInt4LHSRows(dst, aPacked, b, lo, hi, k, n, rowScales, colScales)
	})
}

// matmulInt4LHSRows computes rows [lo,hi) of the packed-LHS int4 matmul.
//
// Per (output row, column tile, k panel): the packed weight-row segment is
// nibble-decoded into a small stack buffer once, reused across the whole
// column tile (amortizing decode over n columns), and folded in by the
// int8 kernel's foldInt8Row. int4KPanel is even, so panel starts are
// always byte-aligned within a packed row.
func matmulInt4LHSRows(dst []float32, aPacked []byte, b []int8, lo, hi, k, n int, rowScales, colScales []float32) {
	rb := Int4PackedLen(k)
	var accArr [colBlock]int32
	var wbuf [int4KPanel]int8
	for jb := 0; jb < n; jb += colBlock {
		tile := accArr[:min(colBlock, n-jb)]
		for i := lo; i < hi; i++ {
			arow := aPacked[i*rb : (i+1)*rb]
			clear(tile)
			for kb := 0; kb < k; kb += int4KPanel {
				khi := min(kb+int4KPanel, k)
				kh := khi - kb
				seg := arow[kb>>1:]
				nb := kh >> 1
				for bi := 0; bi < nb; bi++ {
					by := seg[bi]
					wbuf[2*bi] = int8(by<<4) >> 4
					wbuf[2*bi+1] = int8(by) >> 4
				}
				if kh&1 == 1 { // odd k tail: the pad nibble is canonically zero
					wbuf[kh-1] = int8(seg[nb]<<4) >> 4
				}
				foldInt8Row(tile, wbuf[:kh], b[kb*n:], n, jb)
			}
			scaleRow(dst[i*n+jb:i*n+jb+len(tile)], tile, rowScales[i], colScales[jb:])
		}
	}
}
