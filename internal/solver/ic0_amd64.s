// AVX2 IC(0) substitution row kernel: one block row, 4 columns per
// ymm lane group.
//
// The lanes run ACROSS the right-hand sides, never across a
// reduction: each lane carries one column's scalar recurrence with
// exactly the pure-Go sweep's operation order,
//
//	t = b_r0*x0; u = b_r1*x1; t = t+u; u = b_r2*x2; t = t+u; acc -= t
//
// followed by the 3x3 triangular solve with the diagonal Cholesky
// block, so every column is bitwise-identical to IC0.Apply. FMA is
// deliberately NOT used: it would skip the intermediate rounding the
// scalar expression performs.

#include "textflag.h"

// func ic0RowAVX2(vals *float64, idx *int32, nblk int, z, src, dst, l *float64, m, w, backward int)
//
// Register plan: Y0..Y2 the three accumulator rows, Y3..Y5 the three
// x rows of the current block, Y6..Y11 temps.
TEXT ·ic0RowAVX2(SB), NOSPLIT, $0-80
	MOVQ z+24(FP), DX
	MOVQ src+32(FP), BX
	MOVQ dst+40(FP), R8
	MOVQ l+48(FP), AX
	MOVQ m+56(FP), R13
	MOVQ w+64(FP), R9
	MOVQ backward+72(FP), R10
	LEAQ (R13)(R13*2), R12 // 3m
	XORQ R11, R11          // column offset

colloop:
	CMPQ R11, R9
	JGE  done

	// acc <- the three source rows at this column quad.
	LEAQ    (BX)(R11*8), R15
	VMOVUPD (R15), Y0
	VMOVUPD (R15)(R13*8), Y1
	LEAQ    (R15)(R13*8), R15
	VMOVUPD (R15)(R13*8), Y2

	MOVQ vals+0(FP), SI
	MOVQ idx+8(FP), DI
	MOVQ nblk+16(FP), CX

blockloop:
	TESTQ CX, CX
	JZ    solve

	// x rows: z + (idx*3m + off)*8, row stride m.
	MOVLQSX (DI), R14
	IMULQ   R12, R14
	ADDQ    R11, R14
	LEAQ    (DX)(R14*8), R14
	VMOVUPD (R14), Y3
	VMOVUPD (R14)(R13*8), Y4
	LEAQ    (R14)(R13*8), R14
	VMOVUPD (R14)(R13*8), Y5

	// block row 0 -> acc Y0
	VBROADCASTSD (SI), Y6
	VMULPD       Y3, Y6, Y6
	VBROADCASTSD 8(SI), Y7
	VMULPD       Y4, Y7, Y7
	VADDPD       Y7, Y6, Y6
	VBROADCASTSD 16(SI), Y7
	VMULPD       Y5, Y7, Y7
	VADDPD       Y7, Y6, Y6
	VSUBPD       Y6, Y0, Y0

	// block row 1 -> acc Y1
	VBROADCASTSD 24(SI), Y8
	VMULPD       Y3, Y8, Y8
	VBROADCASTSD 32(SI), Y9
	VMULPD       Y4, Y9, Y9
	VADDPD       Y9, Y8, Y8
	VBROADCASTSD 40(SI), Y9
	VMULPD       Y5, Y9, Y9
	VADDPD       Y9, Y8, Y8
	VSUBPD       Y8, Y1, Y1

	// block row 2 -> acc Y2
	VBROADCASTSD 48(SI), Y10
	VMULPD       Y3, Y10, Y10
	VBROADCASTSD 56(SI), Y11
	VMULPD       Y4, Y11, Y11
	VADDPD       Y11, Y10, Y10
	VBROADCASTSD 64(SI), Y11
	VMULPD       Y5, Y11, Y11
	VADDPD       Y11, Y10, Y10
	VSUBPD       Y10, Y2, Y2

	ADDQ $72, SI
	ADDQ $4, DI
	DECQ CX
	JMP  blockloop

solve:
	TESTQ R10, R10
	JNZ   backward

	// forward3: y0 = a0/l0; y1 = (a1 - l3*y0)/l4;
	// y2 = ((a2 - l6*y0) - l7*y1)/l8.
	VBROADCASTSD (AX), Y6
	VDIVPD       Y6, Y0, Y0
	VBROADCASTSD 24(AX), Y6
	VMULPD       Y0, Y6, Y6
	VSUBPD       Y6, Y1, Y1
	VBROADCASTSD 32(AX), Y6
	VDIVPD       Y6, Y1, Y1
	VBROADCASTSD 48(AX), Y6
	VMULPD       Y0, Y6, Y6
	VSUBPD       Y6, Y2, Y2
	VBROADCASTSD 56(AX), Y6
	VMULPD       Y1, Y6, Y6
	VSUBPD       Y6, Y2, Y2
	VBROADCASTSD 64(AX), Y6
	VDIVPD       Y6, Y2, Y2
	JMP          store

backward:
	// backward3: x2 = a2/l8; x1 = (a1 - l7*x2)/l4;
	// x0 = ((a0 - l3*x1) - l6*x2)/l0.
	VBROADCASTSD 64(AX), Y6
	VDIVPD       Y6, Y2, Y2
	VBROADCASTSD 56(AX), Y6
	VMULPD       Y2, Y6, Y6
	VSUBPD       Y6, Y1, Y1
	VBROADCASTSD 32(AX), Y6
	VDIVPD       Y6, Y1, Y1
	VBROADCASTSD 24(AX), Y6
	VMULPD       Y1, Y6, Y6
	VSUBPD       Y6, Y0, Y0
	VBROADCASTSD 48(AX), Y6
	VMULPD       Y2, Y6, Y6
	VSUBPD       Y6, Y0, Y0
	VBROADCASTSD (AX), Y6
	VDIVPD       Y6, Y0, Y0

store:
	LEAQ    (R8)(R11*8), R15
	VMOVUPD Y0, (R15)
	VMOVUPD Y1, (R15)(R13*8)
	LEAQ    (R15)(R13*8), R15
	VMOVUPD Y2, (R15)(R13*8)

	ADDQ $4, R11
	JMP  colloop

done:
	VZEROUPPER
	RET
