package tensor

// WithoutAVX512 runs f as on a host without AVX-512: the float and int8
// GEMMs on their 6×16 tiles alone and the per-element passes on their
// 8-lane bodies.
func WithoutAVX512(f func()) {
	defer func(m microKernel, q q7Body, v vecBodies) { microPair, q7Pair, vec = m, q, v }(microPair, q7Pair, vec)
	microPair, q7Pair = nil, q7Body{}
	vec, _ = pickVec(false)
	f()
}
