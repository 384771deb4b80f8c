//go:build !race

#include "textflag.h"

// func foldFloat32(drow, xs []float32, offs []int, b []float32)
//
// The fold of matmul_generic.go, four output columns per instruction: each
// SSE lane holds one element of drow, so every element still adds its
// products in list order, rounded to float32 after each multiply and each
// add (SSE has no fused multiply-add), and gives the scalar loop's bits.
// Columns past the last multiple of four take the same steps one at a
// time. Four list entries go per pass, the last one to three one per pass.
// Operands sit in the order go1.24 compiles the portable fold to, so even
// which NaN survives an add of two NaNs matches it.
//
// Registers: DI drow, CX len(drow), AX len(drow) rounded down to a
// multiple of four, SI xs, DX entries left, R8 offs, R9 b, R10–R13 the
// pass's B rows, X0–X3 its activations in every lane, BX the column.
TEXT ·foldFloat32(SB), NOSPLIT, $0-96
	MOVQ drow_base+0(FP), DI
	MOVQ drow_len+8(FP), CX
	MOVQ xs_base+24(FP), SI
	MOVQ xs_len+32(FP), DX
	MOVQ offs_base+48(FP), R8
	MOVQ b_base+72(FP), R9
	MOVQ CX, AX
	ANDQ $-4, AX

quad:
	CMPQ DX, $4
	JLT  single
	MOVSS  (SI), X0
	SHUFPS $0x00, X0, X0
	MOVSS  4(SI), X1
	SHUFPS $0x00, X1, X1
	MOVSS  8(SI), X2
	SHUFPS $0x00, X2, X2
	MOVSS  12(SI), X3
	SHUFPS $0x00, X3, X3
	MOVQ   (R8), R10
	LEAQ   (R9)(R10*4), R10
	MOVQ   8(R8), R11
	LEAQ   (R9)(R11*4), R11
	MOVQ   16(R8), R12
	LEAQ   (R9)(R12*4), R12
	MOVQ   24(R8), R13
	LEAQ   (R9)(R13*4), R13
	XORQ   BX, BX
	CMPQ   AX, $0
	JEQ    quadtail
	PCALIGN $32

quadlanes:
	MOVUPS (R10)(BX*4), X4
	MULPS  X0, X4
	MOVUPS (DI)(BX*4), X6
	ADDPS  X6, X4
	MOVUPS (R11)(BX*4), X5
	MULPS  X1, X5
	ADDPS  X4, X5
	MOVUPS (R12)(BX*4), X4
	MULPS  X2, X4
	ADDPS  X4, X5
	MOVUPS (R13)(BX*4), X4
	MULPS  X3, X4
	ADDPS  X5, X4
	MOVUPS X4, (DI)(BX*4)
	ADDQ   $4, BX
	CMPQ   BX, AX
	JLT    quadlanes

quadtail:
	CMPQ  BX, CX
	JGE   quadnext
	MOVSS (R10)(BX*4), X4
	MULSS X0, X4
	MOVSS (DI)(BX*4), X6
	ADDSS X6, X4
	MOVSS (R11)(BX*4), X5
	MULSS X1, X5
	ADDSS X4, X5
	MOVSS (R12)(BX*4), X4
	MULSS X2, X4
	ADDSS X4, X5
	MOVSS (R13)(BX*4), X4
	MULSS X3, X4
	ADDSS X5, X4
	MOVSS X4, (DI)(BX*4)
	INCQ  BX
	JMP   quadtail

quadnext:
	ADDQ $16, SI
	ADDQ $32, R8
	SUBQ $4, DX
	JMP  quad

single:
	CMPQ   DX, $0
	JEQ    done
	MOVSS  (SI), X0
	SHUFPS $0x00, X0, X0
	MOVQ   (R8), R10
	LEAQ   (R9)(R10*4), R10
	XORQ   BX, BX
	CMPQ   AX, $0
	JEQ    singletail
	PCALIGN $32

singlelanes:
	MOVUPS (R10)(BX*4), X4
	MULPS  X0, X4
	MOVUPS (DI)(BX*4), X6
	ADDPS  X6, X4
	MOVUPS X4, (DI)(BX*4)
	ADDQ   $4, BX
	CMPQ   BX, AX
	JLT    singlelanes

singletail:
	CMPQ  BX, CX
	JGE   singlenext
	MOVSS (R10)(BX*4), X4
	MULSS X0, X4
	MOVSS (DI)(BX*4), X6
	ADDSS X6, X4
	MOVSS X4, (DI)(BX*4)
	INCQ  BX
	JMP   singletail

singlenext:
	ADDQ $4, SI
	ADDQ $8, R8
	DECQ DX
	JMP  single

done:
	RET
