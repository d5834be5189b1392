package tensor

import (
	"math"

	"harvest/internal/quant"
)

// GemmTransBF16Into computes c += a*bᵀ where b is a half-precision
// (n x k row-major) weight matrix stored as raw uint16 bit patterns —
// IEEE float16 when bf16 is false, bfloat16 when true. The weights are
// dequantized panel-at-a-time inside the B pack step, so the working
// set stays half-precision in memory and only one KC×NC panel of f32
// values ever exists per band; the micro-kernel is the same one the f32
// path uses.
func GemmTransBF16Into(c, a []float32, b []uint16, m, n, k int, bf16 bool) {
	if m <= 0 || n <= 0 || k <= 0 {
		return
	}
	if len(b) < n*k {
		panic(shapeErrf("GemmTransBF16Into weights have %d values, want %d", len(b), n*k))
	}
	g := gemm{c: c, a: a, bh: b, ldc: n, lda: k, ldb: k, m: m, n: n, k: k, transB: true, bf16: bf16}
	g.run()
}

// packHalfColumn converts one kc-long column of a transposed
// half-precision B into every NR-th slot of a B strip.
func packHalfColumn(dst []float32, col []uint16, bf16 bool) {
	for p, v := range col {
		if bf16 {
			dst[p*gemmNR] = math.Float32frombits(uint32(v) << 16)
		} else {
			dst[p*gemmNR] = quant.Float16(v).Float32()
		}
	}
}
