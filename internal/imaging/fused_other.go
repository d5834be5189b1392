//go:build !amd64

package imaging

// The fused kernel runs its Go bodies off amd64.
var fusedAVX2 = false

func lerpRowAsm(dst []float64, stride int, row []byte, x0, x1 []int32, wx0, wx1 []float64) int {
	return 0
}

func blendAsm(dst []float32, top, bot []float64, ty float64, m, inv float32) int { return 0 }
