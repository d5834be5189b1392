//go:build !amd64

package tensor

// vec is the set of per-element bodies the forward runs, and Kernels
// names the bodies picked: the Go bodies off amd64.
var vec, Kernels = pickVec(false)

func pickVec(bool) (vecBodies, string) { return vecGo, "go" }
