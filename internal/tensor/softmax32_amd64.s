//go:build amd64

#include "textflag.h"

// Four-lane constants of the float32 exponential, the values of
// softmax32.go's const block at float32 (a symbol this large is at least
// 16-byte aligned, which the memory operands below rely on).
#define NEGINF	sm32c<>+0(SB)
#define EXPMIN	sm32c<>+16(SB)
#define LOG2E	sm32c<>+32(SB)
#define HALF	sm32c<>+48(SB)
#define LN2HI	sm32c<>+64(SB)
#define LN2LO	sm32c<>+80(SB)
#define P0	sm32c<>+96(SB)
#define P1	sm32c<>+112(SB)
#define P2	sm32c<>+128(SB)
#define P3	sm32c<>+144(SB)
#define P4	sm32c<>+160(SB)
#define P5	sm32c<>+176(SB)
#define ONE	sm32c<>+192(SB)
#define BIAS	sm32c<>+208(SB)

DATA sm32c<>+0(SB)/8, $0xff800000ff800000	// -Inf
DATA sm32c<>+8(SB)/8, $0xff800000ff800000
DATA sm32c<>+16(SB)/8, $0xc2ae0000c2ae0000	// -87
DATA sm32c<>+24(SB)/8, $0xc2ae0000c2ae0000
DATA sm32c<>+32(SB)/8, $0x3fb8aa3b3fb8aa3b	// log2(e)
DATA sm32c<>+40(SB)/8, $0x3fb8aa3b3fb8aa3b
DATA sm32c<>+48(SB)/8, $0x3f0000003f000000	// 0.5
DATA sm32c<>+56(SB)/8, $0x3f0000003f000000
DATA sm32c<>+64(SB)/8, $0x3f3180003f318000	// ln2 high
DATA sm32c<>+72(SB)/8, $0x3f3180003f318000
DATA sm32c<>+80(SB)/8, $0xb95e8083b95e8083	// ln2 low
DATA sm32c<>+88(SB)/8, $0xb95e8083b95e8083
DATA sm32c<>+96(SB)/8, $0x3950696739506967	// p0
DATA sm32c<>+104(SB)/8, $0x3950696739506967
DATA sm32c<>+112(SB)/8, $0x3ab743ce3ab743ce	// p1
DATA sm32c<>+120(SB)/8, $0x3ab743ce3ab743ce
DATA sm32c<>+128(SB)/8, $0x3c0889083c088908	// p2
DATA sm32c<>+136(SB)/8, $0x3c0889083c088908
DATA sm32c<>+144(SB)/8, $0x3d2aa9c13d2aa9c1	// p3
DATA sm32c<>+152(SB)/8, $0x3d2aa9c13d2aa9c1
DATA sm32c<>+160(SB)/8, $0x3e2aaaaa3e2aaaaa	// p4
DATA sm32c<>+168(SB)/8, $0x3e2aaaaa3e2aaaaa
DATA sm32c<>+176(SB)/8, $0x3f0000003f000000	// p5
DATA sm32c<>+184(SB)/8, $0x3f0000003f000000
DATA sm32c<>+192(SB)/8, $0x3f8000003f800000	// 1
DATA sm32c<>+200(SB)/8, $0x3f8000003f800000
DATA sm32c<>+208(SB)/8, $0x0000007f0000007f	// 127, the exponent bias (int32)
DATA sm32c<>+216(SB)/8, $0x0000007f0000007f
GLOBL sm32c<>(SB), RODATA|NOPTR, $224

// func softmax32(dst, src []float32)
//
// dst[i] = exp(src[i]-max) / Σ exp(src[j]-max) over len(src)
// elements, operation for operation what softmax32Generic does: three
// passes (maximum, exponentials with their lane-wise sum, division),
// each over the whole four-lane blocks and then the ragged tail. The
// exponential pass takes the tail as one more block, staged through the
// 16-byte frame padded with -Inf.
//
// Register use: DI dst, SI src, CX len; R8/R9 walk src/dst, BX counts
// blocks, AX is the tail length; X15 holds the broadcast maximum, X14
// the lane sums. In the exponential pass R10 remembers where the tail's
// results go and R11 is non-zero once the staged tail block has run.
TEXT ·softmax32(SB), NOSPLIT, $16-48
	MOVQ	dst_base+0(FP), DI
	MOVQ	src_base+24(FP), SI
	MOVQ	src_len+32(FP), CX
	MOVQ	CX, AX
	ANDQ	$3, AX

	// Pass 1: the row maximum. MAXPS/MAXSS keep the incumbent only when
	// it is strictly greater.
	MOVUPS	NEGINF, X0
	MOVQ	SI, R8
	MOVQ	CX, BX
	SHRQ	$2, BX
	JZ	maxfold
maxloop:
	MOVUPS	(R8), X1
	MAXPS	X1, X0
	ADDQ	$16, R8
	DECQ	BX
	JNZ	maxloop
maxfold:
	MOVHLPS	X0, X1		// X1 low pair = lanes 2, 3
	MAXPS	X1, X0		// lane0 = max(l0, l2), lane1 = max(l1, l3)
	MOVAPS	X0, X1
	SHUFPS	$0x55, X1, X1
	MAXSS	X1, X0
	MOVQ	AX, BX
	TESTQ	BX, BX
	JZ	maxdone
maxtail:
	MOVSS	(R8), X1
	MAXSS	X1, X0
	ADDQ	$4, R8
	DECQ	BX
	JNZ	maxtail
maxdone:
	SHUFPS	$0x00, X0, X0
	MOVAPS	X0, X15

	// Pass 2: e = exp(x - max), stored and summed lane-wise.
	XORPS	X14, X14
	XORQ	R11, R11
	MOVQ	SI, R8
	MOVQ	DI, R9
	MOVQ	CX, BX
	SHRQ	$2, BX
	JZ	exptail
exploop:
	MOVUPS	(R8), X0
	SUBPS	X15, X0		// d = x - max
	MOVAPS	X0, X1
	CMPPS	EXPMIN, X1, $1	// X1 = d < -87: lanes forced to +0 below
	MAXPS	EXPMIN, X0	// c = max(d, -87): keeps n in range, 2^n normal
	MOVAPS	X0, X2
	MULPS	LOG2E, X2
	SUBPS	HALF, X2
	CVTTPS2PL X2, X3	// n = trunc(c*log2e - 0.5) = round(c*log2e), c <= 0
	CVTPL2PS X3, X2		// n as float
	MOVAPS	X2, X4
	MULPS	LN2HI, X4
	SUBPS	X4, X0
	MULPS	LN2LO, X2
	SUBPS	X2, X0		// r = c - n*ln2hi - n*ln2lo, |r| <= ln2/2
	MOVAPS	P0, X2		// Horner: p = ((((p0 r + p1) r + p2) r + p3) r + p4) r + p5
	MULPS	X0, X2
	ADDPS	P1, X2
	MULPS	X0, X2
	ADDPS	P2, X2
	MULPS	X0, X2
	ADDPS	P3, X2
	MULPS	X0, X2
	ADDPS	P4, X2
	MULPS	X0, X2
	ADDPS	P5, X2
	MOVAPS	X0, X4
	MULPS	X0, X4		// r*r
	MULPS	X4, X2
	ADDPS	X0, X2
	ADDPS	ONE, X2		// exp(r) = p r^2 + r + 1
	PADDL	BIAS, X3
	PSLLL	$23, X3		// 2^n through the exponent bits
	MULPS	X3, X2
	ANDNPS	X2, X1		// X1 = d < -87 ? +0 : exp(r) 2^n
	MOVUPS	X1, (R9)
	ADDPS	X1, X14
	ADDQ	$16, R8
	ADDQ	$16, R9
	DECQ	BX
	JNZ	exploop
	TESTQ	R11, R11
	JNZ	tailout
exptail:
	TESTQ	AX, AX
	JZ	expdone
	// Stage the tail as a -Inf-padded block in the frame and run it
	// through the loop body once (R8 and R9 stand at the tail already).
	MOVUPS	NEGINF, X0
	MOVUPS	X0, tmp-16(SP)
	MOVQ	R9, R10
	LEAQ	tmp-16(SP), R9
	MOVQ	AX, BX
stage:
	MOVL	(R8), DX
	MOVL	DX, (R9)
	ADDQ	$4, R8
	ADDQ	$4, R9
	DECQ	BX
	JNZ	stage
	LEAQ	tmp-16(SP), R8
	MOVQ	R8, R9
	MOVQ	$1, BX
	MOVQ	$1, R11
	JMP	exploop
tailout:
	LEAQ	tmp-16(SP), R8
	MOVQ	AX, BX
unstage:
	MOVL	(R8), DX
	MOVL	DX, (R10)
	ADDQ	$4, R8
	ADDQ	$4, R10
	DECQ	BX
	JNZ	unstage
expdone:
	// Fold the lane sums (0+2)+(1+3) and broadcast.
	MOVHLPS	X14, X1
	ADDPS	X14, X1
	MOVAPS	X1, X2
	SHUFPS	$0x55, X2, X2
	ADDSS	X2, X1
	SHUFPS	$0x00, X1, X1

	// Pass 3: divide by the sum.
	MOVQ	DI, R9
	MOVQ	CX, BX
	SHRQ	$2, BX
	JZ	divtail
divloop:
	MOVUPS	(R9), X0
	DIVPS	X1, X0
	MOVUPS	X0, (R9)
	ADDQ	$16, R9
	DECQ	BX
	JNZ	divloop
divtail:
	TESTQ	AX, AX
	JZ	done
divtail1:
	MOVSS	(R9), X0
	DIVSS	X1, X0
	MOVSS	X0, (R9)
	ADDQ	$4, R9
	DECQ	AX
	JNZ	divtail1
done:
	RET
