//go:build !amd64

package tensor

// micro is the register kernel every packed GEMM runs: the Go body off
// amd64.
var micro microKernel = microGo
