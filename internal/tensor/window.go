package tensor

import (
	"fmt"
	"math"
)

// Window is a KH×KW window sliding with step Stride over a C-channel H×W
// map that is zero-padded by Pad on every side. Maps are flat and row-major,
// [C, H, W]. This file is the module's only description of one, and is named
// to sort after tensor.go: text order inside a package is file order, so
// nothing here can move the matmul kernels (ARCHITECTURE.md, "Editing tensor").
type Window struct {
	C, H, W     int
	KH, KW      int
	Stride, Pad int
}

// Check reports whether g describes a window: every dimension and the
// stride positive, the padding non-negative, and the window no larger than
// its padded map. Out cannot tell the last: its division truncates toward
// zero, so at stride > 1 a window larger than the map would count as one
// position and read past the map's end.
func (g Window) Check() error {
	if g.C < 1 || g.H < 1 || g.W < 1 || g.KH < 1 || g.KW < 1 || g.Stride < 1 || g.Pad < 0 {
		return fmt.Errorf("tensor: window %d×%d stride %d pad %d over a %d×%d×%d map: dimensions and stride must be positive",
			g.KH, g.KW, g.Stride, g.Pad, g.C, g.H, g.W)
	}
	if g.KH > g.H+2*g.Pad || g.KW > g.W+2*g.Pad {
		return fmt.Errorf("tensor: window %d×%d does not fit its %d×%d map padded by %d", g.KH, g.KW, g.H, g.W, g.Pad)
	}
	return nil
}

// Out returns the number of window positions down and across the map. It is
// at least 1×1 for a window that passes Check.
func (g Window) Out() (oh, ow int) {
	return (g.H+2*g.Pad-g.KH)/g.Stride + 1, (g.W+2*g.Pad-g.KW)/g.Stride + 1
}

// Taps returns the number of elements under one window position, C·KH·KW:
// the row count of the im2col matrix.
func (g Window) Taps() int { return g.C * g.KH * g.KW }

// walk visits every tap of every window position in im2col order — channel,
// kernel row, kernel column, then output row and output column — giving
// visit the tap's index in the [Taps, oh·ow] column matrix, the index in the
// [C, oh, ow] output of the position it belongs to, and its index in the
// map, or −1 where it falls in the padding.
func (g Window) walk(visit func(col, out, src int)) {
	oh, ow := g.Out()
	col := 0
	for ch := 0; ch < g.C; ch++ {
		for ki := 0; ki < g.KH; ki++ {
			for kj := 0; kj < g.KW; kj++ {
				out := ch * oh * ow
				for oi := 0; oi < oh; oi++ {
					si := oi*g.Stride + ki - g.Pad
					for oj := 0; oj < ow; oj++ {
						sj := oj*g.Stride + kj - g.Pad
						src := -1
						if si >= 0 && si < g.H && sj >= 0 && sj < g.W {
							src = (ch*g.H+si)*g.W + sj
						}
						visit(col, out, src)
						col++
						out++
					}
				}
			}
		}
	}
}

// Im2col unrolls the map x into the [Taps, oh·ow] column matrix cols, one
// column per window position, writing every element: a tap in the padding
// is zero, which is exact in the integer domain as in the float one.
func Im2col[T int8 | float32](cols, x []T, g Window) {
	g.walk(func(col, _, src int) {
		if src < 0 {
			cols[col] = 0
		} else {
			cols[col] = x[src]
		}
	})
}

// Col2im is Im2col's adjoint: it adds every element of cols onto the map
// element it was gathered from, so overlapping windows accumulate.
func Col2im(x, cols []float32, g Window) {
	g.walk(func(col, _, src int) {
		if src >= 0 {
			x[src] += cols[col]
		}
	})
}

// MaxPool writes into the [C, oh, ow] map dst the maximum under every window
// position; the first of equal maxima wins, and padding never does. A
// non-nil argmax, one entry per output, receives the winner's index in x —
// −1 where nothing compared greater than −∞ — which is all a backward pass
// needs; inference passes nil.
func MaxPool(dst, x []float32, g Window, argmax []int) {
	for i := range dst {
		dst[i] = float32(math.Inf(-1))
	}
	for i := range argmax {
		argmax[i] = -1
	}
	g.walk(func(_, out, src int) {
		if src >= 0 && x[src] > dst[out] {
			dst[out] = x[src]
			if argmax != nil {
				argmax[out] = src
			}
		}
	})
}

// AddBias adds bias[c] to every element of channel c of the [len(bias), n]
// map y.
func AddBias(y, bias []float32) {
	n := len(y) / len(bias)
	for c, b := range bias {
		row := y[c*n : (c+1)*n]
		for i := range row {
			row[i] += b
		}
	}
}

// Conv2DInto convolves one example: y = w × im2col(x) + bias, for the
// [len(bias), Taps] kernel matrix w, through the [Taps, oh·ow] workspace
// cols into the [len(bias), oh·ow] map y.
func Conv2DInto(y, w, cols, x, bias []float32, g Window) {
	oh, ow := g.Out()
	Im2col(cols, x, g)
	MatMulRowsInto(y, w, cols, len(bias), g.Taps(), oh*ow)
	AddBias(y, bias)
}
