#include "textflag.h"

// Adds one row of accumulators (lo, hi: columns 0-7, 8-15) into C at DX
// and steps DX to the next row (R8 = ldc in bytes).
#define STOREROW(lo, hi) \
	VADDPS (DX), lo, lo; \
	VMOVUPS lo, (DX); \
	VADDPS 32(DX), hi, hi; \
	VMOVUPS hi, 32(DX); \
	ADDQ R8, DX

// Broadcasts A value off(SI) into bc and FMAs it with the B row (Y0, Y1)
// into one row of accumulators.
#define FMAROW(off, bc, lo, hi) \
	VBROADCASTSS off(SI), bc; \
	VFMADD231PS Y0, bc, lo; \
	VFMADD231PS Y1, bc, hi

// func microAVX2(a, b *float32, kc int, c *float32, ldc int)
// kc >= 1: the loop runs before it tests.
TEXT ·microAVX2(SB), NOSPLIT, $0-40
	MOVQ a+0(FP), SI
	MOVQ b+8(FP), DI
	MOVQ kc+16(FP), CX
	MOVQ c+24(FP), DX
	MOVQ ldc+32(FP), R8
	SHLQ $2, R8
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
	FMAROW(0, Y2, Y4, Y5)
	FMAROW(4, Y3, Y6, Y7)
	FMAROW(8, Y2, Y8, Y9)
	FMAROW(12, Y3, Y10, Y11)
	FMAROW(16, Y2, Y12, Y13)
	FMAROW(20, Y3, Y14, Y15)
	ADDQ $24, SI
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

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
