//go:build !amd64

package tensor

// micro and q7Micro are the register kernels every packed float and
// int8 GEMM runs: the Go bodies off amd64.
var (
	micro   microKernel = microGo
	q7Micro q7Kernel    = q7MicroGo
)
