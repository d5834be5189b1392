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
// accumulators, VBROADCASTSS of A against two 8-wide loads of B, one
// VFMADD231PS each.
//
//go:noescape
func microAVX2(a, b *float32, kc int, c *float32, ldc int)

func microAVX2Body(ap, bp []float32, kc int, c []float32, ldc int) {
	// The assembly does no bounds checks: prove every access here.
	_, _, _ = ap[gemmMR*kc-1], bp[gemmNR*kc-1], c[(gemmMR-1)*ldc+gemmNR-1]
	microAVX2(&ap[0], &bp[0], kc, &c[0], ldc)
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

// hasAVX2FMA reports CPUID's AVX, FMA, OSXSAVE (leaf 1) and AVX2 (leaf
// 7) bits, and XGETBV's XMM and YMM state-enabled bits.
func hasAVX2FMA() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const fma, osxsave, avx = 1 << 12, 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(fma|osxsave|avx) != fma|osxsave|avx {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0
}
