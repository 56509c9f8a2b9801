//go:build amd64

#include "textflag.h"

// Packed-SSE2 float64 row kernels (amd64 baseline, no feature
// detection). Each walks the successive quartets of a, where quartet q
// pairs a[4q..4q+3] with rows 4q..4q+3 of the len(a) x len(dst)
// row-major block b, and updates every element of dst. Two lanes per
// register run exactly the scalar Go kernels' multiply and add
// sequence per element — no fused multiply-add, no reassociation — so
// results are bitwise identical to the generic build. All-zero
// quartets are skipped (CMPPD matches the generic a==0 test, so -0
// skips too). The inner loop covers four lanes per iteration; a scalar
// loop finishes the ragged tail.
//
// Register use: DI dst base, CX lane count, SI a walk, R12 quartet
// count, R11 current quartet's first b row; per quartet R8/R9/R10/R14
// walk the four b rows and DX walks dst, with BX/AX as loop counters;
// X0-X3 hold the broadcast coefficients.

// func gemv4d(dst, a, b []float64)
//
// dst[j] += a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j] per quartet, the
// sum taken left to right before it is added to dst: MatMulInto's
// order.
TEXT ·gemv4d(SB), NOSPLIT, $0-72
	MOVQ	dst_base+0(FP), DI
	MOVQ	dst_len+8(FP), CX
	MOVQ	a_base+24(FP), SI
	MOVQ	a_len+32(FP), R12
	MOVQ	b_base+48(FP), R11
	SHRQ	$2, R12
	JZ	gdone
	TESTQ	CX, CX
	JZ	gdone

gquartet:
	MOVUPD	(SI), X8
	MOVUPD	16(SI), X9
	XORPD	X10, X10
	XORPD	X11, X11
	CMPPD	X8, X10, $0
	CMPPD	X9, X11, $0
	MOVMSKPD X10, AX
	MOVMSKPD X11, BX
	ANDL	BX, AX
	CMPL	AX, $3
	JEQ	gnextq

	MOVAPD	X8, X0
	UNPCKLPD X0, X0
	MOVAPD	X8, X1
	UNPCKHPD X1, X1
	MOVAPD	X9, X2
	UNPCKLPD X2, X2
	MOVAPD	X9, X3
	UNPCKHPD X3, X3

	MOVQ	R11, R8
	LEAQ	(R8)(CX*8), R9
	LEAQ	(R9)(CX*8), R10
	LEAQ	(R10)(CX*8), R14
	MOVQ	DI, DX

	MOVQ	CX, BX
	SHRQ	$2, BX
	JZ	gtail

gloop4:
	// t = b0*a0
	MOVUPD	(R8), X4
	MOVUPD	16(R8), X5
	MULPD	X0, X4
	MULPD	X0, X5
	// t += b1*a1
	MOVUPD	(R9), X6
	MOVUPD	16(R9), X7
	MULPD	X1, X6
	MULPD	X1, X7
	ADDPD	X6, X4
	ADDPD	X7, X5
	// t += b2*a2
	MOVUPD	(R10), X6
	MOVUPD	16(R10), X7
	MULPD	X2, X6
	MULPD	X2, X7
	ADDPD	X6, X4
	ADDPD	X7, X5
	// t += b3*a3
	MOVUPD	(R14), X6
	MOVUPD	16(R14), X7
	MULPD	X3, X6
	MULPD	X3, X7
	ADDPD	X6, X4
	ADDPD	X7, X5
	// dst += t (t + dst == dst + t bitwise for IEEE adds)
	MOVUPD	(DX), X6
	MOVUPD	16(DX), X7
	ADDPD	X6, X4
	ADDPD	X7, X5
	MOVUPD	X4, (DX)
	MOVUPD	X5, 16(DX)

	ADDQ	$32, R8
	ADDQ	$32, R9
	ADDQ	$32, R10
	ADDQ	$32, R14
	ADDQ	$32, DX
	DECQ	BX
	JNZ	gloop4

gtail:
	MOVQ	CX, AX
	ANDQ	$3, AX
	JZ	gnextq

gloop1:
	MOVSD	(R8), X4
	MULSD	X0, X4
	MOVSD	(R9), X5
	MULSD	X1, X5
	ADDSD	X5, X4
	MOVSD	(R10), X5
	MULSD	X2, X5
	ADDSD	X5, X4
	MOVSD	(R14), X5
	MULSD	X3, X5
	ADDSD	X5, X4
	MOVSD	(DX), X5
	ADDSD	X5, X4
	MOVSD	X4, (DX)

	ADDQ	$8, R8
	ADDQ	$8, R9
	ADDQ	$8, R10
	ADDQ	$8, R14
	ADDQ	$8, DX
	DECQ	AX
	JNZ	gloop1

gnextq:
	// Next quartet: b forward four rows, a by 32 bytes.
	MOVQ	CX, AX
	SHLQ	$5, AX
	ADDQ	AX, R11
	ADDQ	$32, SI
	DECQ	R12
	JNZ	gquartet

gdone:
	RET

// func axpy4d(dst, a, b []float64)
//
// dst[j] = (((dst[j] + a0*b0[j]) + a1*b1[j]) + a2*b2[j]) + a3*b3[j] per
// quartet: each product added into dst in turn, the order of four
// successive axpy passes and of a k-ascending dot product.
TEXT ·axpy4d(SB), NOSPLIT, $0-72
	MOVQ	dst_base+0(FP), DI
	MOVQ	dst_len+8(FP), CX
	MOVQ	a_base+24(FP), SI
	MOVQ	a_len+32(FP), R12
	MOVQ	b_base+48(FP), R11
	SHRQ	$2, R12
	JZ	xdone
	TESTQ	CX, CX
	JZ	xdone

xquartet:
	MOVUPD	(SI), X8
	MOVUPD	16(SI), X9
	XORPD	X10, X10
	XORPD	X11, X11
	CMPPD	X8, X10, $0
	CMPPD	X9, X11, $0
	MOVMSKPD X10, AX
	MOVMSKPD X11, BX
	ANDL	BX, AX
	CMPL	AX, $3
	JEQ	xnextq

	MOVAPD	X8, X0
	UNPCKLPD X0, X0
	MOVAPD	X8, X1
	UNPCKHPD X1, X1
	MOVAPD	X9, X2
	UNPCKLPD X2, X2
	MOVAPD	X9, X3
	UNPCKHPD X3, X3

	MOVQ	R11, R8
	LEAQ	(R8)(CX*8), R9
	LEAQ	(R9)(CX*8), R10
	LEAQ	(R10)(CX*8), R14
	MOVQ	DI, DX

	MOVQ	CX, BX
	SHRQ	$2, BX
	JZ	xtail

xloop4:
	MOVUPD	(DX), X4
	MOVUPD	16(DX), X5
	// d += b0*a0
	MOVUPD	(R8), X6
	MOVUPD	16(R8), X7
	MULPD	X0, X6
	MULPD	X0, X7
	ADDPD	X6, X4
	ADDPD	X7, X5
	// d += b1*a1
	MOVUPD	(R9), X6
	MOVUPD	16(R9), X7
	MULPD	X1, X6
	MULPD	X1, X7
	ADDPD	X6, X4
	ADDPD	X7, X5
	// d += b2*a2
	MOVUPD	(R10), X6
	MOVUPD	16(R10), X7
	MULPD	X2, X6
	MULPD	X2, X7
	ADDPD	X6, X4
	ADDPD	X7, X5
	// d += b3*a3
	MOVUPD	(R14), X6
	MOVUPD	16(R14), X7
	MULPD	X3, X6
	MULPD	X3, X7
	ADDPD	X6, X4
	ADDPD	X7, X5
	MOVUPD	X4, (DX)
	MOVUPD	X5, 16(DX)

	ADDQ	$32, R8
	ADDQ	$32, R9
	ADDQ	$32, R10
	ADDQ	$32, R14
	ADDQ	$32, DX
	DECQ	BX
	JNZ	xloop4

xtail:
	MOVQ	CX, AX
	ANDQ	$3, AX
	JZ	xnextq

xloop1:
	MOVSD	(DX), X4
	MOVSD	(R8), X5
	MULSD	X0, X5
	ADDSD	X5, X4
	MOVSD	(R9), X5
	MULSD	X1, X5
	ADDSD	X5, X4
	MOVSD	(R10), X5
	MULSD	X2, X5
	ADDSD	X5, X4
	MOVSD	(R14), X5
	MULSD	X3, X5
	ADDSD	X5, X4
	MOVSD	X4, (DX)

	ADDQ	$8, R8
	ADDQ	$8, R9
	ADDQ	$8, R10
	ADDQ	$8, R14
	ADDQ	$8, DX
	DECQ	AX
	JNZ	xloop1

xnextq:
	MOVQ	CX, AX
	SHLQ	$5, AX
	ADDQ	AX, R11
	ADDQ	$32, SI
	DECQ	R12
	JNZ	xquartet

xdone:
	RET
