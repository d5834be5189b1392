package imaging

// WithGoBodies runs f with the fused kernel on its Go bodies, as on a
// host without AVX2.
func WithGoBodies(f func()) {
	defer func(avx2 bool) { fusedAVX2 = avx2 }(fusedAVX2)
	fusedAVX2 = false
	f()
}
