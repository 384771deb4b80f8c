//go:build !race

package tensor

// foldFloat32 is matmul_generic.go's fold in SSE2, four output columns per
// instruction; matmul_amd64.s says why the bits are the same. Every offset
// plus len(drow) must lie within b, which MatMulRowsInto's entry check
// guarantees for every list matmulRows builds.
//
//go:noescape
func foldFloat32(drow, xs []float32, offs []int, b []float32)

// foldInt16 is matmul_generic.go's integer fold in SSE2, four columns per
// PMADDWD; matmul_int16_amd64.s says why the sums are the same. Every offset
// plus 2·len(tile) must lie within w, which MatMulInterleaved's entry check
// guarantees for every list interleavedRows builds.
//
//go:noescape
func foldInt16(tile, xs []int32, offs []int, w []int16)
