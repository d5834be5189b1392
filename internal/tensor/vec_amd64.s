#include "textflag.h"

// 8-lane AVX2 bodies of the forward's per-element passes. Each gives
// the bits of its Go body (ops.go, qgemm.go): the same operations in the
// same order, each rounded to float32 (no FMA), x/y as VDIVPS, and
// VMAXPS/VMINPS operands ordered as the Go comparisons, so a NaN takes
// the path it takes in Go. n is a multiple of 8, at least 8: the loops
// run before they test.

// vecK rows (vec_amd64.go), 32 bytes each.
#define LOG2E ·vecK+0(SB)
#define SHIFT ·vecK+32(SB)
#define LN2HI ·vecK+64(SB)
#define LN2LO ·vecK+96(SB)
#define P6 ·vecK+128(SB)
#define P5 ·vecK+160(SB)
#define P4 ·vecK+192(SB)
#define P3 ·vecK+224(SB)
#define HALF ·vecK+256(SB)
#define ONE ·vecK+288(SB)
#define EXPMIN ·vecK+320(SB)
#define EXPMAX ·vecK+352(SB)
#define GELUA ·vecK+384(SB)
#define GELUB ·vecK+416(SB)
#define C127 ·vecK+448(SB)
#define EXPBIAS ·vecK+480(SB)
#define ABSMASK ·vecK+512(SB)

// y = expClamp(y), with lo = expMin and hi = expMax in registers:
// VMAXPS returns its second source when the first is not greater, so
// lo > y ? lo : y, and a NaN y stays, as `if y < expMin` leaves it.
#define CLAMP(y, lo, hi) \
	VMAXPS y, lo, y; \
	VMINPS y, hi, y

// p = exp32(y) for a clamped y; t and r are scratch. Step for step the
// Go body: t = y·log2e + shift, kf = t − shift, r = y − kf·ln2Hi −
// kf·ln2Lo, the Horner polynomial, then p·2ᵏ with 2ᵏ spliced from t's
// bits as (bits − 0x4b400000 + 127) << 23.
#define EXP32(y, t, r, p) \
	VMULPS LOG2E, y, t; \
	VADDPS SHIFT, t, t; \
	VSUBPS SHIFT, t, p; \
	VMULPS LN2HI, p, r; \
	VSUBPS r, y, r; \
	VMULPS LN2LO, p, p; \
	VSUBPS p, r, r; \
	VMULPS P6, r, p; \
	VADDPS P5, p, p; \
	VMULPS p, r, p; \
	VADDPS P4, p, p; \
	VMULPS p, r, p; \
	VADDPS P3, p, p; \
	VMULPS p, r, p; \
	VADDPS HALF, p, p; \
	VMULPS p, r, p; \
	VADDPS ONE, p, p; \
	VMULPS p, r, p; \
	VADDPS ONE, p, p; \
	VPADDD EXPBIAS, t, t; \
	VPSLLD $23, t, t; \
	VMULPS t, p, p

// func addAVX2(dst, src *float32, n int)
TEXT ·addAVX2(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	SHRQ $3, CX

addloop:
	VMOVUPS (DI), Y0
	VADDPS  (SI), Y0, Y0
	VMOVUPS Y0, (DI)
	ADDQ    $32, DI
	ADDQ    $32, SI
	DECQ    CX
	JNZ     addloop
	VZEROUPPER
	RET

// func scaleAVX2(x *float32, n int, s float32)
TEXT ·scaleAVX2(SB), NOSPLIT, $0-20
	MOVQ         x+0(FP), SI
	MOVQ         n+8(FP), CX
	VBROADCASTSS s+16(FP), Y1
	SHRQ         $3, CX

scaleloop:
	VMULPS  (SI), Y1, Y0
	VMOVUPS Y0, (SI)
	ADDQ    $32, SI
	DECQ    CX
	JNZ     scaleloop
	VZEROUPPER
	RET

// func geluAVX2(x *float32, n int)
// x / (1 + exp32(expClamp(geluB·(x + geluA·x·x·x)))) in place.
TEXT ·geluAVX2(SB), NOSPLIT, $0-16
	MOVQ         x+0(FP), SI
	MOVQ         n+8(FP), CX
	SHRQ         $3, CX
	VBROADCASTSS EXPMIN, Y15
	VBROADCASTSS EXPMAX, Y14

geluloop:
	VMOVUPS (SI), Y0
	VMULPS  GELUA, Y0, Y1
	VMULPS  Y0, Y1, Y1
	VMULPS  Y0, Y1, Y1
	VADDPS  Y1, Y0, Y1
	VMULPS  GELUB, Y1, Y1
	CLAMP(Y1, Y15, Y14)
	EXP32(Y1, Y2, Y3, Y4)
	VADDPS  ONE, Y4, Y4
	VDIVPS  Y4, Y0, Y0
	VMOVUPS Y0, (SI)
	ADDQ    $32, SI
	DECQ    CX
	JNZ     geluloop
	VZEROUPPER
	RET

// func minMaxAVX2(x *float32, n int, first float32) (lo, hi float32)
// Per lane lo = v < lo ? v : lo and hi = v > hi ? v : hi (VMINPS and
// VMAXPS return the second source unless the first wins), then the
// lanes fold by the same rule. Every lane starts at first, so all are
// NaN when first is, and none is otherwise.
TEXT ·minMaxAVX2(SB), NOSPLIT, $0-32
	MOVQ         x+0(FP), SI
	MOVQ         n+8(FP), CX
	SHRQ         $3, CX
	VBROADCASTSS first+16(FP), Y0
	VMOVAPS      Y0, Y1

mmloop:
	VMOVUPS (SI), Y2
	VMINPS  Y0, Y2, Y0
	VMAXPS  Y1, Y2, Y1
	ADDQ    $32, SI
	DECQ    CX
	JNZ     mmloop

	VEXTRACTF128 $1, Y0, X2
	VMINPS       X0, X2, X0
	VEXTRACTF128 $1, Y1, X3
	VMAXPS       X1, X3, X1
	VPERMILPS    $0x4e, X0, X2
	VMINPS       X0, X2, X0
	VPERMILPS    $0x4e, X1, X3
	VMAXPS       X1, X3, X1
	VPERMILPS    $0xb1, X0, X2
	VMINPS       X0, X2, X0
	VPERMILPS    $0xb1, X1, X3
	VMAXPS       X1, X3, X1
	VMOVSS       X0, lo+24(FP)
	VMOVSS       X1, hi+28(FP)
	VZEROUPPER
	RET

// func softmaxExpAVX2(row *float32, n int, maxv, scale float32) float64
// Replaces each v by exp32(expClamp((v − maxv)·scale)) and adds the
// values in softmaxExp's order: float64 pair sums (VHADDPD gives e0+e1,
// e4+e5, e2+e3, e6+e7), then one running sum over the pairs in row
// order.
TEXT ·softmaxExpAVX2(SB), NOSPLIT, $0-32
	MOVQ         row+0(FP), SI
	MOVQ         n+8(FP), CX
	SHRQ         $3, CX
	VBROADCASTSS maxv+16(FP), Y13
	VBROADCASTSS scale+20(FP), Y12
	VBROADCASTSS EXPMIN, Y15
	VBROADCASTSS EXPMAX, Y14
	VXORPD       X11, X11, X11

smloop:
	VMOVUPS      (SI), Y0
	VSUBPS       Y13, Y0, Y1
	VMULPS       Y12, Y1, Y1
	CLAMP(Y1, Y15, Y14)
	EXP32(Y1, Y2, Y3, Y4)
	VMOVUPS      Y4, (SI)
	VCVTPS2PD    X4, Y5
	VEXTRACTF128 $1, Y4, X6
	VCVTPS2PD    X6, Y6
	VHADDPD      Y6, Y5, Y5
	VEXTRACTF128 $1, Y5, X6
	VADDSD       X5, X11, X11
	VADDSD       X6, X11, X11
	VPERMILPD    $1, X5, X5
	VADDSD       X5, X11, X11
	VPERMILPD    $1, X6, X6
	VADDSD       X6, X11, X11
	ADDQ         $32, SI
	DECQ         CX
	JNZ          smloop
	VMOVSD       X11, ret+24(FP)
	VZEROUPPER
	RET

// func q7QuantizeAVX2(dst *uint8, x *float32, n int, scale, zp float32)
// Codes clamp(round(x/scale) + zp, 0, 127), rounding half away from
// zero as math.Round does: trunc(|v|), plus one when |v| − trunc ≥ 0.5
// (exact in float32), then v's sign. VCVTPS2DQ would round half to
// even. A float32 sum with zp is exact below 2²⁴ and stays out of
// [0, 127] above it, so the clamp sees what the float64 sum gives.
TEXT ·q7QuantizeAVX2(SB), NOSPLIT, $0-32
	MOVQ         dst+0(FP), DI
	MOVQ         x+8(FP), SI
	MOVQ         n+16(FP), CX
	SHRQ         $3, CX
	VBROADCASTSS scale+24(FP), Y0
	VBROADCASTSS zp+28(FP), Y1
	VMOVUPS      ABSMASK, Y2
	VXORPS       Y5, Y5, Y5

qloop:
	VMOVUPS      (SI), Y7
	VDIVPS       Y0, Y7, Y7
	VANDPS       Y2, Y7, Y8
	VROUNDPS     $3, Y8, Y9
	VSUBPS       Y9, Y8, Y10
	VCMPPS       $13, HALF, Y10, Y10 // |v| − trunc ≥ 0.5
	VANDPS       ONE, Y10, Y10
	VADDPS       Y10, Y9, Y9
	VANDNPS      Y7, Y2, Y11
	VORPS        Y11, Y9, Y9
	VADDPS       Y1, Y9, Y9
	VMAXPS       Y5, Y9, Y9
	VMINPS       C127, Y9, Y9
	VCVTTPS2DQ   Y9, Y9
	VEXTRACTI128 $1, Y9, X10
	VPACKSSDW    X10, X9, X9
	VPACKUSWB    X9, X9, X9
	VMOVQ        X9, (DI)
	ADDQ         $32, SI
	ADDQ         $8, DI
	DECQ         CX
	JNZ          qloop
	VZEROUPPER
	RET

// func q7DequantAVX2(c *float32, ldc int, tile *int32, rows *quant.Q7Params, mr int, scales *float32, rowSum *int32, accumulate bool)
// Per row r and column j: rows[r].Scale·scales[j]·(float32(raw) −
// float32(ZeroPoint)·float32(rowSum[j])), plus c's old value when
// accumulate. Tile rows are 64 bytes apart, Q7Params 8.
TEXT ·q7DequantAVX2(SB), NOSPLIT, $0-57
	MOVQ    c+0(FP), DI
	MOVQ    ldc+8(FP), R8
	SHLQ    $2, R8
	MOVQ    tile+16(FP), SI
	MOVQ    rows+24(FP), BX
	MOVQ    mr+32(FP), CX
	MOVQ    scales+40(FP), AX
	MOVQ    rowSum+48(FP), DX
	MOVBLZX accumulate+56(FP), R9
	VMOVUPS (AX), Y0
	VMOVUPS 32(AX), Y1
	VCVTDQ2PS (DX), Y2
	VCVTDQ2PS 32(DX), Y3

dqloop:
	VBROADCASTSS (BX), Y4
	VPBROADCASTD 4(BX), Y5
	VCVTDQ2PS    Y5, Y5
	VMULPS       Y0, Y4, Y6
	VMULPS       Y1, Y4, Y7
	VMULPS       Y2, Y5, Y8
	VMULPS       Y3, Y5, Y9
	VCVTDQ2PS    (SI), Y10
	VCVTDQ2PS    32(SI), Y11
	VSUBPS       Y8, Y10, Y10
	VSUBPS       Y9, Y11, Y11
	VMULPS       Y10, Y6, Y10
	VMULPS       Y11, Y7, Y11
	TESTQ        R9, R9
	JZ           dqstore
	VADDPS       (DI), Y10, Y10
	VADDPS       32(DI), Y11, Y11

dqstore:
	VMOVUPS Y10, (DI)
	VMOVUPS Y11, 32(DI)
	ADDQ    $64, SI
	ADDQ    $8, BX
	ADDQ    R8, DI
	DECQ    CX
	JNZ     dqloop
	VZEROUPPER
	RET
