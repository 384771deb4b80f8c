//go:build !race

#include "textflag.h"

// func foldInt16(tile, xs []int32, offs []int, w []int16)
//
// The integer fold of matmul_generic.go, four columns per instruction. A
// list entry is an activation pair packed into 32 bits, low half first;
// PSHUFL broadcasts it to every lane, and PMADDWL multiplies it by four
// columns of its row pair, each column's two weights sitting side by side,
// and adds each lane's two products: one instruction, eight MACs. The pair
// sums cannot saturate (|x·w| ≤ 2^14 for int8 codes), PADDL adds them into
// the int32 tile, and integer addition is exact, so the tile holds the same
// sums in any order. Columns past the last multiple of four load one column
// with MOVL and take the same steps in one lane. The list length is a
// multiple of four (interleavedRows pads it with zero pairs).
//
// Registers: DI tile, CX len(tile), AX len(tile) rounded down to a multiple
// of four, SI xs, DX entries left, R8 offs, R9 w, R10–R13 the pass's row
// pairs, X0–X3 its activation pairs in every lane, BX the column.
TEXT ·foldInt16(SB), NOSPLIT, $0-96
	MOVQ tile_base+0(FP), DI
	MOVQ tile_len+8(FP), CX
	MOVQ xs_base+24(FP), SI
	MOVQ xs_len+32(FP), DX
	MOVQ offs_base+48(FP), R8
	MOVQ w_base+72(FP), R9
	MOVQ CX, AX
	ANDQ $-4, AX

quad:
	CMPQ   DX, $0
	JEQ    done
	MOVL   (SI), X0
	PSHUFL $0x00, X0, X0
	MOVL   4(SI), X1
	PSHUFL $0x00, X1, X1
	MOVL   8(SI), X2
	PSHUFL $0x00, X2, X2
	MOVL   12(SI), X3
	PSHUFL $0x00, X3, X3
	MOVQ   (R8), R10
	LEAQ   (R9)(R10*2), R10
	MOVQ   8(R8), R11
	LEAQ   (R9)(R11*2), R11
	MOVQ   16(R8), R12
	LEAQ   (R9)(R12*2), R12
	MOVQ   24(R8), R13
	LEAQ   (R9)(R13*2), R13
	XORQ   BX, BX
	CMPQ   AX, $0
	JEQ    tail
	PCALIGN $32

lanes:
	MOVOU   (R10)(BX*4), X4
	PMADDWL X0, X4
	MOVOU   (R11)(BX*4), X5
	PMADDWL X1, X5
	PADDL   X5, X4
	MOVOU   (R12)(BX*4), X5
	PMADDWL X2, X5
	PADDL   X5, X4
	MOVOU   (R13)(BX*4), X5
	PMADDWL X3, X5
	PADDL   X5, X4
	MOVOU   (DI)(BX*4), X5
	PADDL   X5, X4
	MOVOU   X4, (DI)(BX*4)
	ADDQ    $4, BX
	CMPQ    BX, AX
	JLT     lanes

tail:
	CMPQ    BX, CX
	JGE     next
	MOVL    (R10)(BX*4), X4
	PMADDWL X0, X4
	MOVL    (R11)(BX*4), X5
	PMADDWL X1, X5
	PADDL   X5, X4
	MOVL    (R12)(BX*4), X5
	PMADDWL X2, X5
	PADDL   X5, X4
	MOVL    (R13)(BX*4), X5
	PMADDWL X3, X5
	PADDL   X5, X4
	MOVL    (DI)(BX*4), X5
	PADDL   X5, X4
	MOVL    X4, (DI)(BX*4)
	INCQ    BX
	JMP     tail

next:
	ADDQ $16, SI
	ADDQ $32, R8
	SUBQ $4, DX
	JMP  quad

done:
	RET
