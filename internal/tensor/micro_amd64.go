package tensor

// micro and q7Micro are the register kernels every packed float and
// int8 GEMM runs, picked once at package init: the AVX2(/FMA) bodies
// when the CPU has AVX2 and FMA and the OS saves the YMM registers, the
// Go bodies otherwise. The float bodies may differ in the last bits
// (FMA rounds once per multiply-add); each is deterministic. The int8
// bodies are exact, so they agree bit for bit.
var micro, q7Micro = pickMicro()

func pickMicro() (microKernel, q7Kernel) {
	if hasAVX2FMA() {
		return microAVX2Body, q7MicroAVX2Body
	}
	return microGo, q7MicroGo
}

// microAVX2 is the 6×16 kernel in micro_amd64.s: twelve ymm
// accumulators, VBROADCASTSS of A — six rows read in place, lda apart —
// against two 8-wide loads of the packed B strip, one VFMADD231PS each.
//
//go:noescape
func microAVX2(a *float32, lda int, b *float32, kc int, c *float32, ldc int)

func microAVX2Body(a []float32, lda int, bp []float32, kc int, c []float32, ldc int) {
	// The assembly does no bounds checks: prove every access here. Rows
	// at least kc apart keep every row's reads inside a.
	if kc < 1 || lda < kc || ldc < gemmNR {
		panic(shapeErrf("micro-kernel: kc=%d, lda=%d, ldc=%d", kc, lda, ldc))
	}
	_, _, _ = a[(gemmMR-1)*lda+kc-1], bp[gemmNR*kc-1], c[(gemmMR-1)*ldc+gemmNR-1]
	microAVX2(&a[0], lda, &bp[0], kc, &c[0], ldc)
}

// q7MicroAVX2 is the 6×16 int8 kernel in micro_amd64.s: twelve ymm
// int32 accumulators; per row and k-group a VPBROADCASTD of the row's
// four codes, VPMADDUBSW against the strip's two 32-byte lines, VPMADDWD
// by ones and VPADDD.
//
//go:noescape
func q7MicroAVX2(a *uint8, lda int, b *uint8, kg int, c *int32)

func q7MicroAVX2Body(a []uint8, lda int, b []uint8, kg int, c *[gemmMR * gemmNR]int32) {
	_, _ = a[(gemmMR-1)*lda+4*kg-1], b[4*gemmNR*kg-1]
	q7MicroAVX2(&a[0], lda, &b[0], kg, &c[0])
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)

// hasAVX2FMA reports CPUID's AVX, FMA, F16C, OSXSAVE (leaf 1) and AVX2
// (leaf 7) bits, and XGETBV's XMM and YMM state-enabled bits. (Every
// CPU with AVX2 has F16C, which the half-precision B pack uses.)
func hasAVX2FMA() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const fma, osxsave, avx, f16c = 1 << 12, 1 << 27, 1 << 28, 1 << 29
	if _, _, ecx, _ := cpuid(1, 0); ecx&(fma|osxsave|avx|f16c) != fma|osxsave|avx|f16c {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0
}
