package imaging

import "harvest/internal/cpufeat"

// fusedAVX2 picks the assembly bodies of the fused kernel's two passes,
// once at init, when the CPU has AVX2 and the OS saves the YMM
// registers. It reads the same probe as tensor's GEMM dispatch.
var fusedAVX2 = cpufeat.AVX2FMA()

// lerpRowAVX2 is the horizontal pass in fused_amd64.s, 8 columns a
// step: a VPGATHERDD of each column's left and of its right pixel (4
// bytes each, at x0 and x1), then per channel a shift and mask to the
// byte, VCVTDQ2PD, VMULPD by 1-tx and tx, and VADDPD. n is a multiple
// of 8.
//
//go:noescape
func lerpRowAVX2(dst *float64, stride int, row *byte, x0, x1 *int32, wx0, wx1 *float64, n int)

// lerpRowAsm runs lerpRowAVX2 over the longest prefix of whole 8-column
// steps whose gathers stay inside row and returns its length; the Go
// body does the rest. A gather reads 4 bytes from a pixel's first byte,
// so the last pixel of a source whose Pix ends at it is never gathered.
func lerpRowAsm(dst []float64, stride int, row []byte, x0, x1 []int32, wx0, wx1 []float64) int {
	if !fusedAVX2 {
		return 0
	}
	// x1 never decreases and x0 <= x1: the last columns are the ones
	// that could read past row.
	n := len(x1)
	for n > 0 && int(x1[n-1])+4 > len(row) {
		n--
	}
	if n &^= 7; n == 0 {
		return 0
	}
	_, _, _ = x0[n-1], wx0[n-1], wx1[n-1]
	_ = dst[(Channels-1)*stride+n-1]
	lerpRowAVX2(&dst[0], stride, &row[0], &x0[0], &x1[0], &wx0[0], &wx1[0], n)
	return n
}

// blendAVX2 is the vertical pass in fused_amd64.s for one channel
// plane, 8 values a step: VMULPD/VADDPD of the blend and its +0.5,
// VMAXPD/VMINPD for clamp8, VCVTTPD2DQ for uint8's truncation,
// VCVTDQ2PS, VDIVPS by 255, VSUBPS mean and VMULPS 1/std. n is a
// multiple of 8.
//
//go:noescape
func blendAVX2(dst *float32, top, bot *float64, n int, wy0, wy1 float64, m, inv float32)

// blendAsm runs blendAVX2 over the longest prefix of dst that is whole
// 8-value steps and returns its length; the Go body does the rest.
func blendAsm(dst []float32, top, bot []float64, ty float64, m, inv float32) int {
	n := len(dst) &^ 7
	if !fusedAVX2 || n == 0 {
		return 0
	}
	_, _ = top[n-1], bot[n-1]
	blendAVX2(&dst[0], &top[0], &bot[0], n, 1-ty, ty, m, inv)
	return n
}
