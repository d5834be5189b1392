//go:build !amd64

package tensor

// micro, microPair, q7Strip, q7Pair and q7Block are the tiles every
// packed float and int8 GEMM runs: the Go bodies off amd64, and no pair
// tiles or block body.
var (
	micro     microKernel = microGo
	microPair microKernel
	q7Strip   = q7StripGo
	q7Pair    q7Body
	q7Block   q7BlockKernel
)
