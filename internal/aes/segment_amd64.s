#include "textflag.h"

// LOADBLOCK sets X to the counter block nonce‖BE(CX) and advances CX.
#define LOADBLOCK(X) \
	MOVQ   BX, X       \
	MOVQ   CX, DX      \
	BSWAPQ DX          \
	PINSRQ $1, DX, X   \
	INCQ   CX

// ROUND4 runs one AESENC round with key K on the four blocks.
#define ROUND4(K) \
	AESENC K, X11 \
	AESENC K, X12 \
	AESENC K, X13 \
	AESENC K, X14

// func ctrBlocksAESNI(rk *[11][16]byte, nonce, ctr uint64, dst *byte, n int)
//
// X0..X10 hold the round keys. Four blocks run interleaved in X11..X14,
// so each AESENC's latency hides behind the other three; the last n mod
// 4 blocks run one at a time in X11.
TEXT ·ctrBlocksAESNI(SB), NOSPLIT, $0-40
	MOVQ  rk+0(FP), AX
	MOVQ  nonce+8(FP), BX
	MOVQ  ctr+16(FP), CX
	MOVQ  dst+24(FP), DI
	MOVQ  n+32(FP), SI
	MOVOU 0(AX), X0
	MOVOU 16(AX), X1
	MOVOU 32(AX), X2
	MOVOU 48(AX), X3
	MOVOU 64(AX), X4
	MOVOU 80(AX), X5
	MOVOU 96(AX), X6
	MOVOU 112(AX), X7
	MOVOU 128(AX), X8
	MOVOU 144(AX), X9
	MOVOU 160(AX), X10

loop4:
	CMPQ SI, $4
	JB   tail
	LOADBLOCK(X11)
	LOADBLOCK(X12)
	LOADBLOCK(X13)
	LOADBLOCK(X14)
	PXOR X0, X11
	PXOR X0, X12
	PXOR X0, X13
	PXOR X0, X14
	ROUND4(X1)
	ROUND4(X2)
	ROUND4(X3)
	ROUND4(X4)
	ROUND4(X5)
	ROUND4(X6)
	ROUND4(X7)
	ROUND4(X8)
	ROUND4(X9)
	AESENCLAST X10, X11
	AESENCLAST X10, X12
	AESENCLAST X10, X13
	AESENCLAST X10, X14
	MOVOU X11, 0(DI)
	MOVOU X12, 16(DI)
	MOVOU X13, 32(DI)
	MOVOU X14, 48(DI)
	ADDQ  $64, DI
	SUBQ  $4, SI
	JMP   loop4

tail:
	TESTQ SI, SI
	JZ    done
	LOADBLOCK(X11)
	PXOR       X0, X11
	AESENC     X1, X11
	AESENC     X2, X11
	AESENC     X3, X11
	AESENC     X4, X11
	AESENC     X5, X11
	AESENC     X6, X11
	AESENC     X7, X11
	AESENC     X8, X11
	AESENC     X9, X11
	AESENCLAST X10, X11
	MOVOU      X11, 0(DI)
	ADDQ       $16, DI
	DECQ       SI
	JMP        tail

done:
	RET
