//go:build !race

package tensor

// foldFloat32 is matmul_generic.go's fold in SSE2, four output columns per
// instruction; matmul_amd64.s says why the bits are the same. Every offset
// plus len(drow) must lie within b, which MatMulRowsInto's entry check
// guarantees for every list matmulRows builds.
//
//go:noescape
func foldFloat32(drow, xs []float32, offs []int, b []float32)
