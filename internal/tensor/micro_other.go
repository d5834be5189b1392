//go:build !amd64

package tensor

// micro, microPair, q7Strip and q7Pair are the register tiles every
// packed float and int8 GEMM runs: the Go bodies off amd64, and no pair
// tiles.
var (
	micro     microKernel = microGo
	microPair microKernel
	q7Strip   = q7StripGo
	q7Pair    q7Body
)
