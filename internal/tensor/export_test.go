package tensor

// WithoutQ7Pair runs f with the int8 GEMM on the 6×16 tile alone, as on
// a host without the VNNI pair tile.
func WithoutQ7Pair(f func()) {
	defer func(p q7Body) { q7Pair = p }(q7Pair)
	q7Pair = q7Body{}
	f()
}
