package cpufeat

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)

// AVX2FMA reports CPUID's AVX, FMA, F16C, OSXSAVE (leaf 1) and AVX2
// (leaf 7) bits, and XGETBV's XMM and YMM state-enabled bits. (Every
// CPU with AVX2 has F16C, which tensor's half-precision B pack uses.)
func AVX2FMA() bool {
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

// AVX512VNNI reports CPUID's AVX512F (leaf 7 EBX) and AVX512_VNNI
// (leaf 7 ECX) bits, and XGETBV's XMM, YMM, opmask and both ZMM
// state-enabled bits. It says nothing about AVX2: a caller that runs
// AVX2 code beside the 512-bit body asks AVX2FMA too. Nor does it check
// AVX512DQ, BW or VL (leaf 7 EBX bits 17, 30 and 31): the bodies it
// picks use AVX512F instructions on zmm registers only, and a body that
// needs one of those must add its bit here.
func AVX512VNNI() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	if _, _, ecx, _ := cpuid(1, 0); ecx&(1<<27) == 0 { // OSXSAVE: XGETBV works
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&0xe6 != 0xe6 {
		return false
	}
	_, ebx, ecx, _ := cpuid(7, 0)
	return ebx&(1<<16) != 0 && ecx&(1<<11) != 0
}
