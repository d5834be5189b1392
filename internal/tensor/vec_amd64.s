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
#define IOTA ·vecK+544(SB)
#define PERMLO ·vecK+576(SB)
#define PERMHI ·vecK+640(SB)

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

// func q7DequantAVX512(c *float32, ldc int, tile *int32, rows *quant.Q7Params, mr int, scales *float32, rowSum *int32, accumulate bool)
// q7DequantAVX2 on 16 lanes over 32-column tile rows, 128 bytes apart:
// the same operations in the same order, so the same bits.
TEXT ·q7DequantAVX512(SB), NOSPLIT, $0-57
	MOVQ    c+0(FP), DI
	MOVQ    ldc+8(FP), R8
	SHLQ    $2, R8
	MOVQ    tile+16(FP), SI
	MOVQ    rows+24(FP), BX
	MOVQ    mr+32(FP), CX
	MOVQ    scales+40(FP), AX
	MOVQ    rowSum+48(FP), DX
	MOVBLZX accumulate+56(FP), R9
	VMOVUPS (AX), Z0
	VMOVUPS 64(AX), Z1
	VCVTDQ2PS (DX), Z2
	VCVTDQ2PS 64(DX), Z3

dq512loop:
	VBROADCASTSS (BX), Z4
	VPBROADCASTD 4(BX), Z5
	VCVTDQ2PS    Z5, Z5
	VMULPS       Z0, Z4, Z6
	VMULPS       Z1, Z4, Z7
	VMULPS       Z2, Z5, Z8
	VMULPS       Z3, Z5, Z9
	VCVTDQ2PS    (SI), Z10
	VCVTDQ2PS    64(SI), Z11
	VSUBPS       Z8, Z10, Z10
	VSUBPS       Z9, Z11, Z11
	VMULPS       Z10, Z6, Z10
	VMULPS       Z11, Z7, Z11
	TESTQ        R9, R9
	JZ           dq512store
	VADDPS       (DI), Z10, Z10
	VADDPS       64(DI), Z11, Z11

dq512store:
	VMOVUPS Z10, (DI)
	VMOVUPS Z11, 64(DI)
	ADDQ    $128, SI
	ADDQ    $8, BX
	ADDQ    R8, DI
	DECQ    CX
	JNZ     dq512loop
	VZEROUPPER
	RET

// The B pack's transposes. R8 points at the first of eight B rows, R9
// bytes apart (R10 = 3·R9, R11 = 5·R9, R12 = 7·R9); BX is R8's value for
// the strip's second eight rows.
#define ROWSTRIDES \
	LEAQ (R9)(R9*2), R10; \
	LEAQ (R9)(R9*4), R11; \
	LEAQ (R10)(R9*4), R12; \
	LEAQ (SI)(R9*8), BX

// Loads eight values of each of the eight rows at R8 into Y0-Y7 with op
// (a load, or a load that widens to float32).
#define LOAD8(op) \
	op (R8), Y0; \
	op (R8)(R9*1), Y1; \
	op (R8)(R9*2), Y2; \
	op (R8)(R10*1), Y3; \
	op (R8)(R9*4), Y4; \
	op (R8)(R11*1), Y5; \
	op (R8)(R10*2), Y6; \
	op (R8)(R12*1), Y7

// Transposes the 8×8 block in Y0-Y7 (row r in Yr) and stores column c —
// the eight rows' values at one k — to off+64·c(DI): for each k, the
// strip's 16 values are 64 bytes apart, and off picks rows 0-7 or 8-15.
#define TRANSPOSE8(off) \
	VUNPCKLPS Y1, Y0, Y8; \
	VUNPCKHPS Y1, Y0, Y9; \
	VUNPCKLPS Y3, Y2, Y10; \
	VUNPCKHPS Y3, Y2, Y11; \
	VUNPCKLPS Y5, Y4, Y12; \
	VUNPCKHPS Y5, Y4, Y13; \
	VUNPCKLPS Y7, Y6, Y14; \
	VUNPCKHPS Y7, Y6, Y15; \
	VSHUFPS $0x44, Y10, Y8, Y0; \
	VSHUFPS $0xEE, Y10, Y8, Y1; \
	VSHUFPS $0x44, Y11, Y9, Y2; \
	VSHUFPS $0xEE, Y11, Y9, Y3; \
	VSHUFPS $0x44, Y14, Y12, Y4; \
	VSHUFPS $0xEE, Y14, Y12, Y5; \
	VSHUFPS $0x44, Y15, Y13, Y6; \
	VSHUFPS $0xEE, Y15, Y13, Y7; \
	VPERM2F128 $0x20, Y4, Y0, Y8; \
	VMOVUPS Y8, off(DI); \
	VPERM2F128 $0x20, Y5, Y1, Y8; \
	VMOVUPS Y8, off+64(DI); \
	VPERM2F128 $0x20, Y6, Y2, Y8; \
	VMOVUPS Y8, off+128(DI); \
	VPERM2F128 $0x20, Y7, Y3, Y8; \
	VMOVUPS Y8, off+192(DI); \
	VPERM2F128 $0x31, Y4, Y0, Y8; \
	VMOVUPS Y8, off+256(DI); \
	VPERM2F128 $0x31, Y5, Y1, Y8; \
	VMOVUPS Y8, off+320(DI); \
	VPERM2F128 $0x31, Y6, Y2, Y8; \
	VMOVUPS Y8, off+384(DI); \
	VPERM2F128 $0x31, Y7, Y3, Y8; \
	VMOVUPS Y8, off+448(DI)

// bfloat16 is the high half of a float32: shift each widened word up.
#define SHIFT8 \
	VPSLLD $16, Y0, Y0; \
	VPSLLD $16, Y1, Y1; \
	VPSLLD $16, Y2, Y2; \
	VPSLLD $16, Y3, Y3; \
	VPSLLD $16, Y4, Y4; \
	VPSLLD $16, Y5, Y5; \
	VPSLLD $16, Y6, Y6; \
	VPSLLD $16, Y7, Y7

// func packTransAVX2(dst, src *float32, ld, kc8 int)
// Packs 16 rows of src, ld floats apart, kc8 values each (a multiple of
// eight, at least eight), into the strip at dst.
TEXT ·packTransAVX2(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ ld+16(FP), R9
	MOVQ kc8+24(FP), CX
	SHLQ $2, R9
	ROWSTRIDES
	SHRQ $3, CX

ptloop:
	MOVQ SI, R8
	LOAD8(VMOVUPS)
	TRANSPOSE8(0)
	MOVQ BX, R8
	LOAD8(VMOVUPS)
	TRANSPOSE8(32)
	ADDQ $32, SI
	ADDQ $32, BX
	ADDQ $512, DI
	DECQ CX
	JNZ  ptloop
	VZEROUPPER
	RET

// func packTransHalfAVX2(dst *float32, src *uint16, ld, kc8 int, bf16 bool)
// packTransAVX2 over float16 (VCVTPH2PS, exact) or bfloat16 words, ld
// words apart.
TEXT ·packTransHalfAVX2(SB), NOSPLIT, $0-33
	MOVQ    dst+0(FP), DI
	MOVQ    src+8(FP), SI
	MOVQ    ld+16(FP), R9
	MOVQ    kc8+24(FP), CX
	MOVBLZX bf16+32(FP), AX
	SHLQ    $1, R9
	ROWSTRIDES
	SHRQ    $3, CX
	TESTL   AX, AX
	JNZ     pbloop

phloop:
	MOVQ SI, R8
	LOAD8(VCVTPH2PS)
	TRANSPOSE8(0)
	MOVQ BX, R8
	LOAD8(VCVTPH2PS)
	TRANSPOSE8(32)
	ADDQ $16, SI
	ADDQ $16, BX
	ADDQ $512, DI
	DECQ CX
	JNZ  phloop
	VZEROUPPER
	RET

pbloop:
	MOVQ SI, R8
	LOAD8(VPMOVZXWD)
	SHIFT8
	TRANSPOSE8(0)
	MOVQ BX, R8
	LOAD8(VPMOVZXWD)
	SHIFT8
	TRANSPOSE8(32)
	ADDQ $16, SI
	ADDQ $16, BX
	ADDQ $512, DI
	DECQ CX
	JNZ  pbloop
	VZEROUPPER
	RET

// The 16-lane AVX-512 bodies below are the 8-lane ones on zmm registers,
// with the same operations in the same order, so the same bits. They use
// AVX512F instructions only (no DQ, BW or VL: every EVEX instruction is
// 512 bits wide) and keep exp32's constants in Z16-Z28, broadcast once
// per call, instead of reading them from vecK. In the per-element
// bodies n is a multiple of 16, at least 16; softmaxAVX512x8 and
// layerNormAVX512 take n ≥ 1 and mask the last n mod 16 values.
#define EXPK512 \
	VBROADCASTSS LOG2E, Z16; \
	VBROADCASTSS SHIFT, Z17; \
	VBROADCASTSS LN2HI, Z18; \
	VBROADCASTSS LN2LO, Z19; \
	VBROADCASTSS P6, Z20; \
	VBROADCASTSS P5, Z21; \
	VBROADCASTSS P4, Z22; \
	VBROADCASTSS P3, Z23; \
	VBROADCASTSS HALF, Z24; \
	VBROADCASTSS ONE, Z25; \
	VBROADCASTSS EXPBIAS, Z26; \
	VBROADCASTSS EXPMIN, Z27; \
	VBROADCASTSS EXPMAX, Z28

// EXP32 on 16 lanes, with EXPK512's registers for vecK's rows.
#define EXP512(y, t, r, p) \
	VMULPS Z16, y, t; \
	VADDPS Z17, t, t; \
	VSUBPS Z17, t, p; \
	VMULPS Z18, p, r; \
	VSUBPS r, y, r; \
	VMULPS Z19, p, p; \
	VSUBPS p, r, r; \
	VMULPS Z20, r, p; \
	VADDPS Z21, p, p; \
	VMULPS p, r, p; \
	VADDPS Z22, p, p; \
	VMULPS p, r, p; \
	VADDPS Z23, p, p; \
	VMULPS p, r, p; \
	VADDPS Z24, p, p; \
	VMULPS p, r, p; \
	VADDPS Z25, p, p; \
	VMULPS p, r, p; \
	VADDPS Z25, p, p; \
	VPADDD Z26, t, t; \
	VPSLLD $23, t, t; \
	VMULPS t, p, p

// func addAVX512(dst, src *float32, n int)
TEXT ·addAVX512(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	SHRQ $4, CX

add512loop:
	VMOVUPS (DI), Z0
	VADDPS  (SI), Z0, Z0
	VMOVUPS Z0, (DI)
	ADDQ    $64, DI
	ADDQ    $64, SI
	DECQ    CX
	JNZ     add512loop
	VZEROUPPER
	RET

// func geluAVX512(x *float32, n int)
TEXT ·geluAVX512(SB), NOSPLIT, $0-16
	MOVQ         x+0(FP), SI
	MOVQ         n+8(FP), CX
	SHRQ         $4, CX
	EXPK512
	VBROADCASTSS GELUA, Z29
	VBROADCASTSS GELUB, Z30

gelu512loop:
	VMOVUPS (SI), Z0
	VMULPS  Z29, Z0, Z1
	VMULPS  Z0, Z1, Z1
	VMULPS  Z0, Z1, Z1
	VADDPS  Z1, Z0, Z1
	VMULPS  Z30, Z1, Z1
	CLAMP(Z1, Z27, Z28)
	EXP512(Z1, Z2, Z3, Z4)
	VADDPS  Z25, Z4, Z4
	VDIVPS  Z4, Z0, Z0
	VMOVUPS Z0, (SI)
	ADDQ    $64, SI
	DECQ    CX
	JNZ     gelu512loop
	VZEROUPPER
	RET

// func minMaxAVX512(x *float32, n int, first float32) (lo, hi float32)
// minMaxAVX2 on 16 lanes; the upper eight fold onto the lower eight
// (VEXTRACTF64X4 moves 256 bits whatever their type), then as there.
TEXT ·minMaxAVX512(SB), NOSPLIT, $0-32
	MOVQ         x+0(FP), SI
	MOVQ         n+8(FP), CX
	SHRQ         $4, CX
	VBROADCASTSS first+16(FP), Z0
	VMOVAPS      Z0, Z1

mm512loop:
	VMOVUPS (SI), Z2
	VMINPS  Z0, Z2, Z0
	VMAXPS  Z1, Z2, Z1
	ADDQ    $64, SI
	DECQ    CX
	JNZ     mm512loop

	VEXTRACTF64X4 $1, Z0, Y2
	VMINPS        Y0, Y2, Y0
	VEXTRACTF64X4 $1, Z1, Y3
	VMAXPS        Y1, Y3, Y1
	VEXTRACTF128  $1, Y0, X2
	VMINPS        X0, X2, X0
	VEXTRACTF128  $1, Y1, X3
	VMAXPS        X1, X3, X1
	VPERMILPS     $0x4e, X0, X2
	VMINPS        X0, X2, X0
	VPERMILPS     $0x4e, X1, X3
	VMAXPS        X1, X3, X1
	VPERMILPS     $0xb1, X0, X2
	VMINPS        X0, X2, X0
	VPERMILPS     $0xb1, X1, X3
	VMAXPS        X1, X3, X1
	VMOVSS        X0, lo+24(FP)
	VMOVSS        X1, hi+28(FP)
	VZEROUPPER
	RET

// The eight rows of softmaxAVX512x8, column offset DI: row r at
// (DI)(r·ldc·4), with R8 = ldc·4, R9 = 3·R8, R10 = 5·R8, R11 = 7·R8.
#define ROW0 (DI)
#define ROW1 (DI)(R8*1)
#define ROW2 (DI)(R8*2)
#define ROW3 (DI)(R9*1)
#define ROW4 (DI)(R8*4)
#define ROW5 (DI)(R10*1)
#define ROW6 (DI)(R9*2)
#define ROW7 (DI)(R11*1)

// The running max of 16 values v of a row: m = v > m ? v : m per lane,
// as maxOf scans.
#define MAXROW(addr, m) \
	VMOVUPS addr, Z0; \
	VMAXPS  m, Z0, m

#define MAXTAIL(addr, m) \
	VMOVUPS.Z addr, K1, Z0; \
	VMAXPS    m, Z0, K1, m

// m's lanes folded to one, as minMaxAVX2 folds, into the frame at off.
#define MAXFOLD(m, y, x, off) \
	VEXTRACTF64X4 $1, m, Y0; \
	VMAXPS        y, Y0, y; \
	VEXTRACTF128  $1, y, X0; \
	VMAXPS        x, X0, x; \
	VPERMILPS     $0x4e, x, X0; \
	VMAXPS        x, X0, x; \
	VPERMILPS     $0xb1, x, X0; \
	VMAXPS        x, X0, x; \
	VMOVSS        x, off(SP)

// One row's 16 exponentials, exp32(expClamp((v − max)·scale)) with the
// row's max at off(SP), back into the row, and their eight float64 pair
// sums into p as (e0+e1, e8+e9), (e2+e3, e10+e11), …: pair k at qword
// 2k for k < 4 and 2k−7 past that.
#define EXPROW(addr, off, p) \
	VMOVUPS     addr, Z0; \
	VSUBPS.BCST off(SP), Z0, Z1; \
	VMULPS      Z29, Z1, Z1; \
	CLAMP(Z1, Z27, Z28); \
	EXP512(Z1, Z2, Z3, Z4); \
	VMOVUPS     Z4, addr; \
	PAIRS(p)

// EXPROW over the row's last n mod 16 values: the lanes past the row
// are neither read nor written, and add zeros to the sums.
#define EXPTAIL(addr, off, p) \
	VMOVUPS.Z   addr, K1, Z0; \
	VSUBPS.BCST off(SP), Z0, Z1; \
	VMULPS      Z29, Z1, Z1; \
	CLAMP(Z1, Z27, Z28); \
	EXP512(Z1, Z2, Z3, Z4); \
	VMOVUPS     Z4, K1, addr; \
	VMOVAPS.Z   Z4, K1, Z4; \
	PAIRS(p)

#define PAIRS(p) \
	VCVTPS2PD     Y4, Z5; \
	VEXTRACTF64X4 $1, Z4, Y6; \
	VCVTPS2PD     Y6, Z6; \
	VUNPCKLPD     Z6, Z5, Z7; \
	VUNPCKHPD     Z6, Z5, Z5; \
	VADDPD        Z5, Z7, p

// Transposes the eight rows' pair sums in Z8-Z15 (row r in Z8+r) so
// that each of Z0-Z7 holds one qword of all eight rows, row r in lane r
// (Z0: qword 0, Z1: 4, Z2: 2, Z3: 6, Z4: 1, Z5: 5, Z6: 3, Z7: 7), and
// adds them to Z30 in pair order — qwords 0, 2, 4, 6, 1, 3, 5, 7: each
// row's running sum, in its lane.
#define SUMPAIRS \
	VUNPCKLPD  Z9, Z8, Z0; \
	VUNPCKHPD  Z9, Z8, Z1; \
	VUNPCKLPD  Z11, Z10, Z2; \
	VUNPCKHPD  Z11, Z10, Z3; \
	VUNPCKLPD  Z13, Z12, Z4; \
	VUNPCKHPD  Z13, Z12, Z5; \
	VUNPCKLPD  Z15, Z14, Z6; \
	VUNPCKHPD  Z15, Z14, Z7; \
	VSHUFF64X2 $0x88, Z2, Z0, Z8; \
	VSHUFF64X2 $0xdd, Z2, Z0, Z9; \
	VSHUFF64X2 $0x88, Z3, Z1, Z10; \
	VSHUFF64X2 $0xdd, Z3, Z1, Z11; \
	VSHUFF64X2 $0x88, Z6, Z4, Z12; \
	VSHUFF64X2 $0xdd, Z6, Z4, Z13; \
	VSHUFF64X2 $0x88, Z7, Z5, Z14; \
	VSHUFF64X2 $0xdd, Z7, Z5, Z15; \
	VSHUFF64X2 $0x88, Z12, Z8, Z0; \
	VSHUFF64X2 $0xdd, Z12, Z8, Z1; \
	VSHUFF64X2 $0x88, Z13, Z9, Z2; \
	VSHUFF64X2 $0xdd, Z13, Z9, Z3; \
	VSHUFF64X2 $0x88, Z14, Z10, Z4; \
	VSHUFF64X2 $0xdd, Z14, Z10, Z5; \
	VSHUFF64X2 $0x88, Z15, Z11, Z6; \
	VSHUFF64X2 $0xdd, Z15, Z11, Z7; \
	VADDPD     Z0, Z30, Z30; \
	VADDPD     Z2, Z30, Z30; \
	VADDPD     Z1, Z30, Z30; \
	VADDPD     Z3, Z30, Z30; \
	VADDPD     Z4, Z30, Z30; \
	VADDPD     Z6, Z30, Z30; \
	VADDPD     Z5, Z30, Z30; \
	VADDPD     Z7, Z30, Z30

// func softmaxAVX512x8(c *float32, ldc, n int, scale float32, sums *[8]float64)
// softmaxRowGo over eight rows of n ≥ 1 values, ldc floats apart, each
// pass over all eight before the next: the rows' max; their
// exponentials and float64 sums, the eight running sums in the lanes of
// one zmm (the sums come back in sums); the rows scaled by
// float32(1/sum). Each pass runs the rows' whole groups of 16, then
// their last n mod 16 values under a mask.
TEXT ·softmaxAVX512x8(SB), NOSPLIT, $64-40
	MOVQ         c+0(FP), SI
	MOVQ         ldc+8(FP), R8
	SHLQ         $2, R8
	LEAQ         (R8)(R8*2), R9
	LEAQ         (R8)(R8*4), R10
	LEAQ         (R9)(R8*4), R11
	MOVQ         n+16(FP), DX
	MOVQ         DX, CX
	ANDQ         $15, CX
	MOVL         $1, AX
	SHLL         CX, AX
	DECL         AX
	KMOVW        AX, K1 // the last n mod 16 values
	MOVQ         DX, BX
	ANDQ         $15, BX // BX: tail length
	SHRQ         $4, DX  // DX: whole groups of 16

	// The max of each row, starting from its first value.
	MOVQ         SI, DI
	VBROADCASTSS ROW0, Z8
	VBROADCASTSS ROW1, Z9
	VBROADCASTSS ROW2, Z10
	VBROADCASTSS ROW3, Z11
	VBROADCASTSS ROW4, Z12
	VBROADCASTSS ROW5, Z13
	VBROADCASTSS ROW6, Z14
	VBROADCASTSS ROW7, Z15
	MOVQ         DX, CX
	TESTQ        CX, CX
	JZ           smmaxtail

smmaxloop:
	MAXROW(ROW0, Z8)
	MAXROW(ROW1, Z9)
	MAXROW(ROW2, Z10)
	MAXROW(ROW3, Z11)
	MAXROW(ROW4, Z12)
	MAXROW(ROW5, Z13)
	MAXROW(ROW6, Z14)
	MAXROW(ROW7, Z15)
	ADDQ $64, DI
	DECQ CX
	JNZ  smmaxloop

smmaxtail:
	TESTQ BX, BX
	JZ    smmaxfold
	MAXTAIL(ROW0, Z8)
	MAXTAIL(ROW1, Z9)
	MAXTAIL(ROW2, Z10)
	MAXTAIL(ROW3, Z11)
	MAXTAIL(ROW4, Z12)
	MAXTAIL(ROW5, Z13)
	MAXTAIL(ROW6, Z14)
	MAXTAIL(ROW7, Z15)

smmaxfold:
	MAXFOLD(Z8, Y8, X8, 0)
	MAXFOLD(Z9, Y9, X9, 4)
	MAXFOLD(Z10, Y10, X10, 8)
	MAXFOLD(Z11, Y11, X11, 12)
	MAXFOLD(Z12, Y12, X12, 16)
	MAXFOLD(Z13, Y13, X13, 20)
	MAXFOLD(Z14, Y14, X14, 24)
	MAXFOLD(Z15, Y15, X15, 28)

	// The exponentials and their sums.
	VBROADCASTSS scale+24(FP), Z29
	EXPK512
	VXORPD       Z30, Z30, Z30
	MOVQ         SI, DI
	MOVQ         DX, CX
	TESTQ        CX, CX
	JZ           smexptail

smexploop:
	EXPROW(ROW0, 0, Z8)
	EXPROW(ROW1, 4, Z9)
	EXPROW(ROW2, 8, Z10)
	EXPROW(ROW3, 12, Z11)
	EXPROW(ROW4, 16, Z12)
	EXPROW(ROW5, 20, Z13)
	EXPROW(ROW6, 24, Z14)
	EXPROW(ROW7, 28, Z15)
	SUMPAIRS
	ADDQ $64, DI
	DECQ CX
	JNZ  smexploop

smexptail:
	TESTQ BX, BX
	JZ    smscale
	EXPTAIL(ROW0, 0, Z8)
	EXPTAIL(ROW1, 4, Z9)
	EXPTAIL(ROW2, 8, Z10)
	EXPTAIL(ROW3, 12, Z11)
	EXPTAIL(ROW4, 16, Z12)
	EXPTAIL(ROW5, 20, Z13)
	EXPTAIL(ROW6, 24, Z14)
	EXPTAIL(ROW7, 28, Z15)
	SUMPAIRS

smscale:
	// float32(1/sum) per row, then each row times its own.
	MOVQ         sums+32(FP), AX
	VMOVUPD      Z30, (AX)
	MOVQ         $0x3ff0000000000000, AX
	VMOVQ        AX, X0
	VBROADCASTSD X0, Z0
	VDIVPD       Z30, Z0, Z0
	VCVTPD2PS    Z0, Y0
	VMOVUPS      Y0, 32(SP)
	MOVQ         SI, AX
	XORQ         R12, R12

smscalerow:
	VBROADCASTSS 32(SP)(R12*4), Z1
	MOVQ         AX, DI
	MOVQ         DX, CX
	TESTQ        CX, CX
	JZ           smscaletail

smscaleloop:
	VMULPS  (DI), Z1, Z0
	VMOVUPS Z0, (DI)
	ADDQ    $64, DI
	DECQ    CX
	JNZ     smscaleloop

smscaletail:
	TESTQ     BX, BX
	JZ        smscalenext
	VMOVUPS.Z (DI), K1, Z0
	VMULPS    Z0, Z1, Z0
	VMOVUPS   Z0, K1, (DI)

smscalenext:
	ADDQ R8, AX
	INCQ R12
	CMPQ R12, $8
	JLT  smscalerow
	VZEROUPPER
	RET

// The eight rows of a LayerNorm group at column AX: row r at
// (AX)(r·ld·4), with R8 = ld·4, R12 = 3·R8, R13 = 5·R8, R14 = 7·R8.
#define LNLOAD \
	VMOVUPS (AX), Z0; \
	VMOVUPS (AX)(R8*1), Z1; \
	VMOVUPS (AX)(R8*2), Z2; \
	VMOVUPS (AX)(R12*1), Z3; \
	VMOVUPS (AX)(R8*4), Z4; \
	VMOVUPS (AX)(R13*1), Z5; \
	VMOVUPS (AX)(R12*2), Z6; \
	VMOVUPS (AX)(R14*1), Z7

// Transposes the 8×16 block in Z0-Z7 (row r in Zr) into columns of
// eight rows, row r in lane r: Y8+k holds column k, the upper half of
// Z8+k column 4+k, Y12+k column 8+k and the upper half of Z12+k column
// 12+k (k < 4). Z16-Z23 are scratch; Z26 and Z25 hold PERMLO and PERMHI.
#define LNTRANSPOSE \
	VUNPCKLPS Z1, Z0, Z16; \
	VUNPCKHPS Z1, Z0, Z17; \
	VUNPCKLPS Z3, Z2, Z18; \
	VUNPCKHPS Z3, Z2, Z19; \
	VUNPCKLPS Z5, Z4, Z20; \
	VUNPCKHPS Z5, Z4, Z21; \
	VUNPCKLPS Z7, Z6, Z22; \
	VUNPCKHPS Z7, Z6, Z23; \
	VSHUFPS   $0x44, Z18, Z16, Z0; \
	VSHUFPS   $0xee, Z18, Z16, Z1; \
	VSHUFPS   $0x44, Z19, Z17, Z2; \
	VSHUFPS   $0xee, Z19, Z17, Z3; \
	VSHUFPS   $0x44, Z22, Z20, Z4; \
	VSHUFPS   $0xee, Z22, Z20, Z5; \
	VSHUFPS   $0x44, Z23, Z21, Z6; \
	VSHUFPS   $0xee, Z23, Z21, Z7; \
	VMOVAPS   Z0, Z8; \
	VPERMT2PS Z4, Z26, Z8; \
	VMOVAPS   Z1, Z9; \
	VPERMT2PS Z5, Z26, Z9; \
	VMOVAPS   Z2, Z10; \
	VPERMT2PS Z6, Z26, Z10; \
	VMOVAPS   Z3, Z11; \
	VPERMT2PS Z7, Z26, Z11; \
	VMOVAPS   Z0, Z12; \
	VPERMT2PS Z4, Z25, Z12; \
	VMOVAPS   Z1, Z13; \
	VPERMT2PS Z5, Z25, Z13; \
	VMOVAPS   Z2, Z14; \
	VPERMT2PS Z6, Z25, Z14; \
	VMOVAPS   Z3, Z15; \
	VPERMT2PS Z7, Z25, Z15

// One column, widened: the mean chain (Z30 += v) and the Σd² chain
// (d = v − mean, Z24 += d·d), for a column in a lower half (y) or an
// upper half (z).
#define MEANLO(y) \
	VCVTPS2PD y, Z16; \
	VADDPD    Z16, Z30, Z30

#define MEANHI(z) \
	VEXTRACTF64X4 $1, z, Y17; \
	VCVTPS2PD     Y17, Z16; \
	VADDPD        Z16, Z30, Z30

#define VARLO(y) \
	VCVTPS2PD y, Z16; \
	VSUBPD    Z30, Z16, Z16; \
	VMULPD    Z16, Z16, Z16; \
	VADDPD    Z16, Z24, Z24

#define VARHI(z) \
	VEXTRACTF64X4 $1, z, Y17; \
	VCVTPS2PD     Y17, Z16; \
	VSUBPD        Z30, Z16, Z16; \
	VMULPD        Z16, Z16, Z16; \
	VADDPD        Z16, Z24, Z24

// A transposed block's 16 columns, in column order, through col.
#define LNCOLS(lo, hi) \
	lo(Y8); lo(Y9); lo(Y10); lo(Y11); \
	hi(Z8); hi(Z9); hi(Z10); hi(Z11); \
	lo(Y12); lo(Y13); lo(Y14); lo(Y15); \
	hi(Z12); hi(Z13); hi(Z14); hi(Z15)

// func layerNormAVX512(dst, src *float32, groups, n, ld int, gamma, beta *float32, eps float32, stats *[2][8]float64)
// layerNormGo over groups of eight rows — src rows ld floats apart, dst
// rows n apart — with row r of a group in lane r of each float64 zmm.
// Each 16 columns of the eight rows load and transpose into columns,
// widened one at a time for the Go body's mean chain (VADDPD) and,
// after the division, its Σd² chain (VSUBPD, VMULPD, VADDPD; no FMA);
// the last n mod 16 columns are gathered one at a time. /n, +eps, √ and
// 1/x are VDIVPD, VADDPD and VSQRTPD, correctly rounded as Go's float64
// operations are; the last group's float64 mean and Σd²/n go to stats,
// and mu and inv round to float32 into the frame. Then each row's affine
// (v − mu)·inv·γ + β runs 16 columns at a time, the last n mod 16 under
// a mask.
TEXT ·layerNormAVX512(SB), NOSPLIT, $64-72
	MOVQ         dst+0(FP), DI
	MOVQ         src+8(FP), SI
	MOVQ         n+24(FP), DX
	MOVQ         ld+32(FP), R8
	VMOVQ        R8, X15
	VPBROADCASTD X15, Y15
	VPMULLD      IOTA, Y15, Y15
	VMOVAPS      Z15, Z31 // the group's row offsets, in floats, to gather by
	SHLQ         $2, R8
	LEAQ         0(DX*4), R9
	VCVTSI2SDQ   DX, X29, X29
	VBROADCASTSD X29, Z29 // float64(n)
	VCVTSS2SD    eps+56(FP), X28, X28
	VBROADCASTSD X28, Z28 // float64(eps)
	MOVQ         $0x3ff0000000000000, AX
	VMOVQ        AX, X27
	VBROADCASTSD X27, Z27 // 1.0
	VMOVUPS      PERMLO, Z26
	VMOVUPS      PERMHI, Z25
	MOVQ         DX, CX
	ANDQ         $15, CX
	MOVL         $1, AX
	SHLL         CX, AX
	DECL         AX
	KMOVW        AX, K1 // the last n mod 16 columns
	MOVQ         groups+16(FP), CX

lngroup:
	LEAQ   (R8)(R8*2), R12
	LEAQ   (R8)(R8*4), R13
	LEAQ   (R12)(R8*4), R14
	VXORPD Z30, Z30, Z30
	MOVQ   SI, AX
	MOVQ   DX, BX
	SHRQ   $4, BX
	JZ     lnmeantail

lnmean:
	LNLOAD
	LNTRANSPOSE
	LNCOLS(MEANLO, MEANHI)
	ADDQ $64, AX
	DECQ BX
	JNZ  lnmean

lnmeantail:
	MOVQ    DX, BX
	ANDQ    $15, BX
	JZ      lnmeandone
	VMOVAPS Z31, Z15

lnmeancol:
	VPCMPEQD   Y11, Y11, Y11
	VGATHERDPS Y11, (AX)(Y15*4), Y1
	VCVTPS2PD  Y1, Z1
	VADDPD     Z1, Z30, Z30
	ADDQ       $4, AX
	DECQ       BX
	JNZ        lnmeancol

lnmeandone:
	VDIVPD Z29, Z30, Z30
	VXORPD Z24, Z24, Z24
	MOVQ   SI, AX
	MOVQ   DX, BX
	SHRQ   $4, BX
	JZ     lnvartail

lnvar:
	LNLOAD
	LNTRANSPOSE
	LNCOLS(VARLO, VARHI)
	ADDQ $64, AX
	DECQ BX
	JNZ  lnvar

lnvartail:
	MOVQ    DX, BX
	ANDQ    $15, BX
	JZ      lnvardone
	VMOVAPS Z31, Z15

lnvarcol:
	VPCMPEQD   Y11, Y11, Y11
	VGATHERDPS Y11, (AX)(Y15*4), Y1
	VCVTPS2PD  Y1, Z1
	VSUBPD     Z30, Z1, Z1
	VMULPD     Z1, Z1, Z1
	VADDPD     Z1, Z24, Z24
	ADDQ       $4, AX
	DECQ       BX
	JNZ        lnvarcol

lnvardone:
	VDIVPD    Z29, Z24, Z24
	MOVQ      stats+64(FP), R12
	VMOVUPD   Z30, (R12)
	VMOVUPD   Z24, 64(R12)
	VADDPD    Z28, Z24, Z24
	VSQRTPD   Z24, Z24
	VDIVPD    Z24, Z27, Z24
	VCVTPD2PS Z30, Y0
	VCVTPD2PS Z24, Y1
	VMOVUPS   Y0, 0(SP)  // mu
	VMOVUPS   Y1, 32(SP) // inv
	MOVQ      gamma+40(FP), R12
	MOVQ      beta+48(FP), R13
	MOVQ      SI, AX
	MOVQ      DI, BX
	XORQ      R10, R10

lnrow:
	VBROADCASTSS 0(SP)(R10*4), Z3
	VBROADCASTSS 32(SP)(R10*4), Z4
	XORQ         R11, R11
	MOVQ         DX, R14

lncol:
	CMPQ    R14, $16
	JLT     lntail
	VMOVUPS (AX)(R11*1), Z5
	VSUBPS  Z3, Z5, Z5
	VMULPS  Z4, Z5, Z5
	VMULPS  (R12)(R11*1), Z5, Z5
	VADDPS  (R13)(R11*1), Z5, Z5
	VMOVUPS Z5, (BX)(R11*1)
	ADDQ    $64, R11
	SUBQ    $16, R14
	JMP     lncol

lntail:
	TESTQ     R14, R14
	JZ        lnnext
	VMOVUPS.Z (AX)(R11*1), K1, Z5
	VSUBPS    Z3, Z5, Z5
	VMULPS    Z4, Z5, Z5
	VMOVUPS.Z (R12)(R11*1), K1, Z6
	VMULPS    Z6, Z5, Z5
	VMOVUPS.Z (R13)(R11*1), K1, Z6
	VADDPS    Z6, Z5, Z5
	VMOVUPS   Z5, K1, (BX)(R11*1)

lnnext:
	ADDQ R8, AX
	ADDQ R9, BX
	INCQ R10
	CMPQ R10, $8
	JLT  lnrow
	LEAQ (SI)(R8*8), SI
	LEAQ (DI)(R9*8), DI
	DECQ CX
	JNZ  lngroup
	VZEROUPPER
	RET
