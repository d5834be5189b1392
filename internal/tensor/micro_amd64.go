package tensor

// micro is the register kernel every packed GEMM runs, picked once at
// package init: the AVX2/FMA body when the CPU has both and the OS saves
// the YMM registers, the Go body otherwise. The two may differ in the
// last bits (FMA rounds once per multiply-add); each is deterministic.
var micro microKernel = pickMicro()

func pickMicro() microKernel {
	if hasAVX2FMA() {
		return microAVX2Body
	}
	return microGo
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
