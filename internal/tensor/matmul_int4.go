package tensor

import "fmt"

// Int4PackedLen returns the byte length of n int4 codes packed two per
// byte: ceil(n/2). An odd count leaves the final byte's high nibble as
// padding, which the codec requires to be zero.
func Int4PackedLen(n int) int { return (n + 1) / 2 }

// PackInt4 packs signed 4-bit codes two per byte, low nibble first (the
// code at even index i lands in byte i/2's low nibble). Codes must lie in
// the int4 two's-complement range [-8, 7]; anything wider cannot survive
// the round trip and is rejected rather than silently truncated. For an
// odd count the final high nibble is zero, keeping the encoding canonical
// so equal code slices always produce equal bytes.
func PackInt4(codes []int8) ([]byte, error) {
	out := make([]byte, Int4PackedLen(len(codes)))
	for i, c := range codes {
		if c < -8 || c > 7 {
			return nil, fmt.Errorf("tensor: int4 code %d at index %d outside [-8,7]", c, i)
		}
		nib := byte(c) & 0xF
		if i&1 == 0 {
			out[i>>1] = nib
		} else {
			out[i>>1] |= nib << 4
		}
	}
	return out, nil
}

// UnpackInt4 expands packed bytes back into count signed codes. It rejects
// buffers whose length does not match Int4PackedLen(count) — truncated or
// oversized payloads must not decode — and, for odd counts, a nonzero pad
// nibble (a non-canonical encoding PackInt4 never emits).
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
// the layout the packed matmul kernels consume, so single rows stay
// directly sliceable.
func PackInt4Matrix(codes []int8, rows, cols int) ([]byte, error) {
	if len(codes) != rows*cols {
		return nil, fmt.Errorf("tensor: PackInt4Matrix got %d codes for [%d,%d]", len(codes), rows, cols)
	}
	rb := Int4PackedLen(cols)
	out := make([]byte, rows*rb)
	for r := 0; r < rows; r++ {
		row, err := PackInt4(codes[r*cols : (r+1)*cols])
		if err != nil {
			return nil, err
		}
		copy(out[r*rb:], row)
	}
	return out, nil
}

// MatMulInt4 computes dst[i,j] = rowScales[i] * colScales[j] * Σ_p a[i,p]·b[p,j]
// where b is a [k,n] matrix of signed 4-bit codes packed two per byte with
// byte-aligned rows (PackInt4Matrix layout) — the native dense serving
// kernel for packed int4 weight matrices. a is int8 ([m,k] row-major,
// e.g. dynamically quantized activations), accumulation is exact int32.
//
// The kernel never unpacks the weights: a packed byte holds two adjacent
// output columns, which is exactly one column pair of MatMulInt8Pairs, so
// both kernels share pairRows' walk over each row's nonzero activations
// and differ only in where a pair comes from — here a 256-entry table
// expands the byte to lo + hi<<32, so one 64-bit multiply by the
// activation accumulates both columns at once (two MACs per multiply, the
// scalar analogue of a SIMD nibble kernel). Integer accumulation is exact
// and order-independent, so the result is bit-identical to a naive scalar
// triple loop at any worker count. Each |x·code| ≤ 128·8, so the caller
// must keep k·1024 inside int32 range (k < 2^21), which every TinyML-scale
// layer does.
func MatMulInt4(dst []float32, a []int8, bPacked []byte, m, k, n int, rowScales, colScales []float32) {
	pairMatMul(dst, a, nil, bPacked, m, k, n, rowScales, colScales)
}

// int4KPanel sizes the LHS kernel's decoded weight-segment buffer.
const int4KPanel = 128

// int4PairTab maps a packed int4 byte to its SWAR pair value
// lo + hi<<32, the form pairRows accumulates (see MatMulInt8Pairs).
var int4PairTab = func() [256]int64 {
	var t [256]int64
	for by := 0; by < 256; by++ {
		lov := int64(int8(byte(by)<<4) >> 4)
		hiv := int64(int8(byte(by)) >> 4)
		t[by] = lov + hiv<<32
	}
	return t
}()

// foldInt4 is pairRows' inner loop for packed int4 weights: it adds each
// listed activation times its weight row's packed bytes, table-expanded to
// pairs, into the accumulator tile u, four list entries per pass.
func foldInt4(u, xs []int64, offs []int, jo int, b []byte) {
	tab := &int4PairTab
	offs = offs[:len(xs)]
	for q := 0; q+3 < len(xs); q += 4 {
		x0, x1, x2, x3 := xs[q], xs[q+1], xs[q+2], xs[q+3]
		b0 := b[offs[q]+jo:][:len(u)]
		b1 := b[offs[q+1]+jo:][:len(u)]
		b2 := b[offs[q+2]+jo:][:len(u)]
		b3 := b[offs[q+3]+jo:][:len(u)]
		for j, by := range b0 {
			u[j] += x0*tab[by] + x1*tab[b1[j]] + x2*tab[b2[j]] + x3*tab[b3[j]]
		}
	}
}

// MatMulInt4LHS is MatMulInt4 with the packed operand on the left:
// dst[i,j] = rowScales[i] * colScales[j] * Σ_p a[i,p]·b[p,j] where a is a
// [m,k] packed int4 matrix (PackInt4Matrix layout) and b is int8 — the
// convolution layout, where the per-output-channel weight matrix is the
// 4-bit operand and the int8 im2col columns are on the right. The nibble
// decode happens once per k-step (outside the inner j-loop), and the same
// exact-int32 bit-identity argument as MatMulInt4 applies.
func MatMulInt4LHS(dst []float32, aPacked []byte, b []int8, m, k, n int, rowScales, colScales []float32) {
	// Same closure-avoidance shape as MatMulInt4 (see comment there).
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
