#include "textflag.h"

// Splits one channel of the gathered pixels in Y3 (left) and Y4
// (right) to float64, weighs columns 0-3 by Y5 (1-tx) and Y6 (tx) and
// columns 4-7 by Y10 and Y11, adds, and stores the eight values at
// lo and hi. Y9 holds 0xFF per dword. The shifts leave Y3 and Y4 one
// channel on.
#define LERP(lo, hi) \
	VPAND Y9, Y3, Y7; \
	VPAND Y9, Y4, Y8; \
	VCVTDQ2PD X7, Y0; \
	VCVTDQ2PD X8, Y1; \
	VEXTRACTI128 $1, Y7, X7; \
	VEXTRACTI128 $1, Y8, X8; \
	VCVTDQ2PD X7, Y7; \
	VCVTDQ2PD X8, Y8; \
	VMULPD Y5, Y0, Y0; \
	VMULPD Y6, Y1, Y1; \
	VMULPD Y10, Y7, Y7; \
	VMULPD Y11, Y8, Y8; \
	VADDPD Y1, Y0, Y0; \
	VADDPD Y8, Y7, Y7; \
	VMOVUPD Y0, lo; \
	VMOVUPD Y7, hi; \
	VPSRLD $8, Y3, Y3; \
	VPSRLD $8, Y4, Y4

// func lerpRowAVX2(dst *float64, stride int, row *byte, x0, x1 *int32, wx0, wx1 *float64, n int)
// float64(row[x0+c])*wx0 + float64(row[x1+c])*wx1 into dst[c*stride+x]
// for x in [0, n), c in [0, 3); n a multiple of 8. Each VPGATHERDD
// reads 4 bytes at row+x0 (or x1) for eight columns.
TEXT ·lerpRowAVX2(SB), NOSPLIT, $0-64
	MOVQ dst+0(FP), DI
	MOVQ stride+8(FP), R8
	SHLQ $3, R8               // plane stride in bytes
	LEAQ (R8)(R8*1), R12      // two planes
	MOVQ row+16(FP), SI
	MOVQ x0+24(FP), AX
	MOVQ x1+32(FP), BX
	MOVQ wx0+40(FP), R9
	MOVQ wx1+48(FP), R10
	MOVQ n+56(FP), CX
	VPCMPEQD Y9, Y9, Y9
	VPSRLD $24, Y9, Y9        // 0x000000FF per dword
	TESTQ CX, CX
	JZ lerpdone

lerploop:
	VMOVDQU (AX), Y12
	VMOVDQU (BX), Y13
	VPCMPEQD Y2, Y2, Y2
	VPGATHERDD Y2, (SI)(Y12*1), Y3
	VPCMPEQD Y2, Y2, Y2
	VPGATHERDD Y2, (SI)(Y13*1), Y4
	VMOVUPD (R9), Y5
	VMOVUPD (R10), Y6
	VMOVUPD 32(R9), Y10
	VMOVUPD 32(R10), Y11
	LERP((DI), 32(DI))
	LERP((DI)(R8*1), 32(DI)(R8*1))
	LERP((DI)(R12*1), 32(DI)(R12*1))
	ADDQ $32, AX
	ADDQ $32, BX
	ADDQ $64, R9
	ADDQ $64, R10
	ADDQ $64, DI
	SUBQ $8, CX
	JNZ lerploop

lerpdone:
	VZEROUPPER
	RET

// 0.5 and 255 as float64, 255 as float32.
DATA fusedK<>+0(SB)/8, $0x3fe0000000000000
DATA fusedK<>+8(SB)/8, $0x406fe00000000000
DATA fusedK<>+16(SB)/4, $0x437f0000
GLOBL fusedK<>(SB), RODATA|NOPTR, $20

// func blendAVX2(dst *float32, top, bot *float64, n int, wy0, wy1 float64, m, inv float32)
// ((clamp8(top*wy0 + bot*wy1 + 0.5) as float32) / 255 - m) * inv into
// dst[x] for x in [0, n); n a multiple of 8.
TEXT ·blendAVX2(SB), NOSPLIT, $0-56
	MOVQ dst+0(FP), DI
	MOVQ top+8(FP), SI
	MOVQ bot+16(FP), DX
	MOVQ n+24(FP), CX
	VBROADCASTSD wy0+32(FP), Y8
	VBROADCASTSD wy1+40(FP), Y9
	VBROADCASTSS m+48(FP), Y14
	VBROADCASTSS inv+52(FP), Y7
	VBROADCASTSD fusedK<>+0(SB), Y10
	VBROADCASTSD fusedK<>+8(SB), Y11
	VXORPD Y12, Y12, Y12
	VBROADCASTSS fusedK<>+16(SB), Y13
	TESTQ CX, CX
	JZ blenddone

blendloop:
	VMULPD (SI), Y8, Y0
	VMULPD (DX), Y9, Y1
	VMULPD 32(SI), Y8, Y2
	VMULPD 32(DX), Y9, Y3
	VADDPD Y1, Y0, Y0
	VADDPD Y3, Y2, Y2
	VADDPD Y10, Y0, Y0
	VADDPD Y10, Y2, Y2
	VMAXPD Y12, Y0, Y0
	VMAXPD Y12, Y2, Y2
	VMINPD Y11, Y0, Y0
	VMINPD Y11, Y2, Y2
	VCVTTPD2DQY Y0, X0
	VCVTTPD2DQY Y2, X2
	VINSERTI128 $1, X2, Y0, Y0
	VCVTDQ2PS Y0, Y0
	VDIVPS Y13, Y0, Y0
	VSUBPS Y14, Y0, Y0
	VMULPS Y7, Y0, Y0
	VMOVUPS Y0, (DI)
	ADDQ $64, SI
	ADDQ $64, DX
	ADDQ $32, DI
	SUBQ $8, CX
	JNZ blendloop

blenddone:
	VZEROUPPER
	RET
