package tensor

import (
	"math"

	"harvest/internal/quant"
)

// GemmTransBF16Into computes c += a*bᵀ where b is a half-precision
// (n x k row-major) weight matrix stored as raw uint16 bit patterns —
// IEEE float16 when bf16 is false, bfloat16 when true. The weights are
// converted inside the B pack step, once per product and shared by its
// row bands, so they stay half-precision in memory and the f32 copy
// lives only in a worker's pack buffer; the micro-kernel is the same
// one the f32 path uses.
func GemmTransBF16Into(c, a []float32, b []uint16, m, n, k int, bf16 bool) {
	GemmTransBF16Epilogue(c, a, b, m, n, k, bf16, true, Epilogue{})
}

// GemmTransBF16Epilogue is GemmTransBF16Into computing c = a·bᵀ, or
// c += a·bᵀ when accumulate, then applying epi to each finished row
// inside the parallel row bands, as GemmTransBEpilogue does.
func GemmTransBF16Epilogue(c, a []float32, b []uint16, m, n, k int, bf16, accumulate bool, epi Epilogue) {
	if m <= 0 || n <= 0 || k <= 0 {
		return
	}
	if len(b) < n*k {
		panic(shapeErrf("half-precision B has %d values, want %d", len(b), n*k))
	}
	g := gemm{c: c, a: a, bh: b, ldc: n, lda: k, ldb: k, m: m, n: n, k: k, transB: true, bf16: bf16,
		zero: !accumulate, epi: epi}
	g.run()
}

// packTransHalfGo is packTransGo over half-precision words, each
// converted to the float32 it denotes (exactly: every float16 and
// bfloat16 value is a float32 value).
func packTransHalfGo(dst []float32, src []uint16, ld, w int, bf16 bool) {
	kc := len(dst) / gemmNR
	for e := 0; e < w; e++ {
		for p, v := range src[e*ld:][:kc] {
			if bf16 {
				dst[p*gemmNR+e] = math.Float32frombits(uint32(v) << 16)
			} else {
				dst[p*gemmNR+e] = quant.Float16(v).Float32()
			}
		}
	}
}
