//go:build !amd64

package tensor

// micro, q7Strip and q7Pair are the register tiles every packed float
// and int8 GEMM runs: the Go bodies off amd64, and no int8 pair tile.
var (
	micro   microKernel = microGo
	q7Strip             = q7StripGo
	q7Pair  q7Body
)
