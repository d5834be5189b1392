package tensor

// WithoutAVX512 runs f as on a host without AVX-512: the float and int8
// GEMMs on their 6×16 tiles alone (and so without the AMX block body)
// and the per-element passes on their 8-lane bodies.
func WithoutAVX512(f func()) {
	defer func(m microKernel, q q7Body, b q7BlockKernel, v vecBodies) {
		microPair, q7Pair, q7Block, vec = m, q, b, v
	}(microPair, q7Pair, q7Block, vec)
	microPair, q7Pair, q7Block = nil, q7Body{}, nil
	vec, _ = pickVec(false)
	f()
}

// WithoutAMX runs f as on a host without the AMX tiles: the int8 GEMM
// on its VNNI pair tile (or whatever else the host picked).
func WithoutAMX(f func()) {
	defer func(b q7BlockKernel) { q7Block = b }(q7Block)
	q7Block = nil
	f()
}

// WithWorkers runs f with every product and attention call capped at n
// workers, the caller included: 1 runs each serially on the caller.
func WithWorkers(n int, f func()) {
	defer func(c int64) { workerCap = c }(workerCap)
	workerCap = int64(n)
	f()
}

// TeamState reports how many helpers the team has started and how many
// of them are parked.
func TeamState() (started, parked int) {
	helpers.mu.Lock()
	defer helpers.mu.Unlock()
	return helpers.started, helpers.parked
}
