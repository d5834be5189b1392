package tensor

// WithoutPairTiles runs f with the float and int8 GEMMs on their 6×16
// tiles alone, as on a host without the AVX-512 pair tiles.
func WithoutPairTiles(f func()) {
	defer func(m microKernel, q q7Body) { microPair, q7Pair = m, q }(microPair, q7Pair)
	microPair, q7Pair = nil, q7Body{}
	f()
}
