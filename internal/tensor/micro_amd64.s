#include "textflag.h"

// Adds one row of accumulators (lo, hi: columns 0-7, 8-15) into C at DX
// and steps DX to the next row (R8 = ldc in bytes).
#define STOREROW(lo, hi) \
	VADDPS (DX), lo, lo; \
	VMOVUPS lo, (DX); \
	VADDPS 32(DX), hi, hi; \
	VMOVUPS hi, 32(DX); \
	ADDQ R8, DX

// Broadcasts the A value at addr into bc and FMAs it with the B row (Y0,
// Y1) into one row of accumulators.
#define FMAROW(addr, bc, lo, hi) \
	VBROADCASTSS addr, bc; \
	VFMADD231PS Y0, bc, lo; \
	VFMADD231PS Y1, bc, hi

// func microAVX2(a *float32, lda int, b *float32, kc int, c *float32, ldc int)
// kc >= 1: the loop runs before it tests. A's six rows are read where
// they lie, lda floats apart (R9 = lda, R10 = 3·lda, R11 = 5·lda in
// bytes); B is a packed 16-column strip.
TEXT ·microAVX2(SB), NOSPLIT, $0-48
	MOVQ a+0(FP), SI
	MOVQ lda+8(FP), R9
	MOVQ b+16(FP), DI
	MOVQ kc+24(FP), CX
	MOVQ c+32(FP), DX
	MOVQ ldc+40(FP), R8
	SHLQ $2, R8
	SHLQ $2, R9
	LEAQ (R9)(R9*2), R10
	LEAQ (R9)(R9*4), R11
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	VXORPS Y8, Y8, Y8
	VXORPS Y9, Y9, Y9
	VXORPS Y10, Y10, Y10
	VXORPS Y11, Y11, Y11
	VXORPS Y12, Y12, Y12
	VXORPS Y13, Y13, Y13
	VXORPS Y14, Y14, Y14
	VXORPS Y15, Y15, Y15

loop:
	VMOVUPS (DI), Y0
	VMOVUPS 32(DI), Y1
	FMAROW((SI), Y2, Y4, Y5)
	FMAROW((SI)(R9*1), Y3, Y6, Y7)
	FMAROW((SI)(R9*2), Y2, Y8, Y9)
	FMAROW((SI)(R10*1), Y3, Y10, Y11)
	FMAROW((SI)(R9*4), Y2, Y12, Y13)
	FMAROW((SI)(R11*1), Y3, Y14, Y15)
	ADDQ $4, SI
	ADDQ $64, DI
	DECQ CX
	JNZ  loop

	STOREROW(Y4, Y5)
	STOREROW(Y6, Y7)
	STOREROW(Y8, Y9)
	STOREROW(Y10, Y11)
	STOREROW(Y12, Y13)
	STOREROW(Y14, Y15)
	VZEROUPPER
	RET

// Adds one row of pair accumulators (lo, hi: strips 0 and 1) into C at
// DX and steps DX to the next row (R8 = ldc in bytes).
#define PAIRSTOREROW(lo, hi) \
	VADDPS (DX), lo, lo; \
	VMOVUPS lo, (DX); \
	VADDPS 64(DX), hi, hi; \
	VMOVUPS hi, 64(DX); \
	ADDQ R8, DX

// Broadcasts the A value at addr into bc and FMAs it with the two
// strips' B rows (Z0, Z1) into one row of pair accumulators.
#define PAIRFMAROW(addr, bc, lo, hi) \
	VBROADCASTSS addr, bc; \
	VFMADD231PS Z0, bc, lo; \
	VFMADD231PS Z1, bc, hi

// func microPairAVX512(a *float32, lda int, b *float32, kc int, c *float32, ldc int)
// microAVX2 over two adjacent packed strips, the second R12 = 64·kc
// bytes after the first: per lane the same FMAs in the same order, so
// the same bits. kc >= 1: the loop runs before it tests. Z0-Z15 only.
TEXT ·microPairAVX512(SB), NOSPLIT, $0-48
	MOVQ   a+0(FP), SI
	MOVQ   lda+8(FP), R9
	MOVQ   b+16(FP), DI
	MOVQ   kc+24(FP), CX
	MOVQ   c+32(FP), DX
	MOVQ   ldc+40(FP), R8
	SHLQ   $2, R8
	SHLQ   $2, R9
	LEAQ   (R9)(R9*2), R10
	LEAQ   (R9)(R9*4), R11
	MOVQ   CX, R12
	SHLQ   $6, R12
	VXORPS Z4, Z4, Z4
	VXORPS Z5, Z5, Z5
	VXORPS Z6, Z6, Z6
	VXORPS Z7, Z7, Z7
	VXORPS Z8, Z8, Z8
	VXORPS Z9, Z9, Z9
	VXORPS Z10, Z10, Z10
	VXORPS Z11, Z11, Z11
	VXORPS Z12, Z12, Z12
	VXORPS Z13, Z13, Z13
	VXORPS Z14, Z14, Z14
	VXORPS Z15, Z15, Z15

pairloop:
	VMOVUPS (DI), Z0
	VMOVUPS (DI)(R12*1), Z1
	PAIRFMAROW((SI), Z2, Z4, Z5)
	PAIRFMAROW((SI)(R9*1), Z3, Z6, Z7)
	PAIRFMAROW((SI)(R9*2), Z2, Z8, Z9)
	PAIRFMAROW((SI)(R10*1), Z3, Z10, Z11)
	PAIRFMAROW((SI)(R9*4), Z2, Z12, Z13)
	PAIRFMAROW((SI)(R11*1), Z3, Z14, Z15)
	ADDQ    $4, SI
	ADDQ    $64, DI
	DECQ    CX
	JNZ     pairloop

	PAIRSTOREROW(Z4, Z5)
	PAIRSTOREROW(Z6, Z7)
	PAIRSTOREROW(Z8, Z9)
	PAIRSTOREROW(Z10, Z11)
	PAIRSTOREROW(Z12, Z13)
	PAIRSTOREROW(Z14, Z15)
	VZEROUPPER
	RET

// Broadcasts one A row's four codes at addr and adds their dot products
// with the 16 columns' four codes of the B group at DI into lo (columns
// 0-7) and hi (8-15). Y15 holds int16 ones; Y12 and Y13 are scratch.
#define Q7ROW(addr, lo, hi) \
	VPBROADCASTD addr, Y12; \
	VPMADDUBSW (DI), Y12, Y13; \
	VPMADDWD Y15, Y13, Y13; \
	VPADDD Y13, lo, lo; \
	VPMADDUBSW 32(DI), Y12, Y13; \
	VPMADDWD Y15, Y13, Y13; \
	VPADDD Y13, hi, hi

// func q7MicroAVX2(a *uint8, lda int, b *uint8, kg int, c *int32)
// kg >= 1: the loop runs before it tests. Rows of A are lda bytes apart
// (R9 = lda, R10 = 3·lda, R11 = 5·lda); c is 6×16 int32, row stride 64
// bytes, and is overwritten.
TEXT ·q7MicroAVX2(SB), NOSPLIT, $0-40
	MOVQ a+0(FP), SI
	MOVQ lda+8(FP), R9
	MOVQ b+16(FP), DI
	MOVQ kg+24(FP), CX
	MOVQ c+32(FP), DX
	LEAQ (R9)(R9*2), R10
	LEAQ (R9)(R9*4), R11
	VPCMPEQW Y15, Y15, Y15
	VPSRLW $15, Y15, Y15
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	VPXOR Y3, Y3, Y3
	VPXOR Y4, Y4, Y4
	VPXOR Y5, Y5, Y5
	VPXOR Y6, Y6, Y6
	VPXOR Y7, Y7, Y7
	VPXOR Y8, Y8, Y8
	VPXOR Y9, Y9, Y9
	VPXOR Y10, Y10, Y10
	VPXOR Y11, Y11, Y11

q7loop:
	Q7ROW((SI), Y0, Y1)
	Q7ROW((SI)(R9*1), Y2, Y3)
	Q7ROW((SI)(R9*2), Y4, Y5)
	Q7ROW((SI)(R10*1), Y6, Y7)
	Q7ROW((SI)(R9*4), Y8, Y9)
	Q7ROW((SI)(R11*1), Y10, Y11)
	ADDQ $4, SI
	ADDQ $64, DI
	DECQ CX
	JNZ  q7loop

	VMOVDQU Y0, (DX)
	VMOVDQU Y1, 32(DX)
	VMOVDQU Y2, 64(DX)
	VMOVDQU Y3, 96(DX)
	VMOVDQU Y4, 128(DX)
	VMOVDQU Y5, 160(DX)
	VMOVDQU Y6, 192(DX)
	VMOVDQU Y7, 224(DX)
	VMOVDQU Y8, 256(DX)
	VMOVDQU Y9, 288(DX)
	VMOVDQU Y10, 320(DX)
	VMOVDQU Y11, 352(DX)
	VZEROUPPER
	RET

// Broadcasts one A row's four codes at addr into bc and adds their dot
// products with the two strips' 16 columns' four codes (Z12, Z13) into
// lo (strip 0) and hi (strip 1).
#define Q7PAIRROW(addr, bc, lo, hi) \
	VPBROADCASTD addr, bc; \
	VPDPBUSD     Z12, bc, lo; \
	VPDPBUSD     Z13, bc, hi

// func q7MicroVNNI(a *uint8, lda int, b *uint8, kg int, c *int32)
// kg >= 1: the loop runs before it tests. Rows of A are lda bytes apart
// (R9 = lda, R10 = 3·lda, R11 = 5·lda); the second weight strip starts
// R12 = 64·kg bytes after the first. c is 6×32 int32, row stride 128
// bytes, and is overwritten. Z0-Z15 only.
TEXT ·q7MicroVNNI(SB), NOSPLIT, $0-40
	MOVQ   a+0(FP), SI
	MOVQ   lda+8(FP), R9
	MOVQ   b+16(FP), DI
	MOVQ   kg+24(FP), CX
	MOVQ   c+32(FP), DX
	LEAQ   (R9)(R9*2), R10
	LEAQ   (R9)(R9*4), R11
	MOVQ   CX, R12
	SHLQ   $6, R12
	VPXORD Z0, Z0, Z0
	VPXORD Z1, Z1, Z1
	VPXORD Z2, Z2, Z2
	VPXORD Z3, Z3, Z3
	VPXORD Z4, Z4, Z4
	VPXORD Z5, Z5, Z5
	VPXORD Z6, Z6, Z6
	VPXORD Z7, Z7, Z7
	VPXORD Z8, Z8, Z8
	VPXORD Z9, Z9, Z9
	VPXORD Z10, Z10, Z10
	VPXORD Z11, Z11, Z11

q7pairloop:
	VMOVDQU32 (DI), Z12
	VMOVDQU32 (DI)(R12*1), Z13
	Q7PAIRROW((SI), Z14, Z0, Z1)
	Q7PAIRROW((SI)(R9*1), Z15, Z2, Z3)
	Q7PAIRROW((SI)(R9*2), Z14, Z4, Z5)
	Q7PAIRROW((SI)(R10*1), Z15, Z6, Z7)
	Q7PAIRROW((SI)(R9*4), Z14, Z8, Z9)
	Q7PAIRROW((SI)(R11*1), Z15, Z10, Z11)
	ADDQ      $4, SI
	ADDQ      $64, DI
	DECQ      CX
	JNZ       q7pairloop

	VMOVDQU32 Z0, (DX)
	VMOVDQU32 Z1, 64(DX)
	VMOVDQU32 Z2, 128(DX)
	VMOVDQU32 Z3, 192(DX)
	VMOVDQU32 Z4, 256(DX)
	VMOVDQU32 Z5, 320(DX)
	VMOVDQU32 Z6, 384(DX)
	VMOVDQU32 Z7, 448(DX)
	VMOVDQU32 Z8, 512(DX)
	VMOVDQU32 Z9, 576(DX)
	VMOVDQU32 Z10, 640(DX)
	VMOVDQU32 Z11, 704(DX)
	VZEROUPPER
	RET
