package tensor

import (
	"testing"

	"harvest/internal/quant"
	"harvest/internal/stats"
)

// TestMicroBodiesAgree runs the AVX2/FMA body and the Go body over the
// same packed strips — every gemmShapes entry plus the float16/bfloat16
// path — so the fallback the dispatch picks on other CPUs is exercised
// on every run here.
func TestMicroBodiesAgree(t *testing.T) {
	if !hasAVX2FMA() {
		t.Skip("CPU has no AVX2/FMA: the Go body is the only one")
	}
	defer func(k microKernel) { micro = k }(micro)
	both := func(f func() *Tensor) (asm, gob *Tensor) {
		micro = microAVX2Body
		asm = f()
		micro = microGo
		return asm, f()
	}
	r := stats.NewRNG(48)
	for _, s := range gemmShapes {
		m, n, k := s[0], s[1], s[2]
		a, bt := randTensor(r, m, k), randTensor(r, n, k)
		asm, gob := both(func() *Tensor { return MatMulTransB(a, bt) })
		if d := float32(MaxAbsDiff(asm, gob)); d > gemmTol(k) {
			t.Errorf("(%d,%d,%d): AVX2 and Go bodies differ by %g", m, n, k, d)
		}
		for _, bf16 := range []bool{false, true} {
			half := make([]uint16, n*k)
			for i, v := range bt.Data {
				if bf16 {
					half[i] = uint16(quant.BF16FromFloat32(v))
				} else {
					half[i] = uint16(quant.FromFloat32(v))
				}
			}
			asm, gob := both(func() *Tensor {
				c := New(m, n)
				GemmTransBF16Into(c.Data, a.Data, half, m, n, k, bf16)
				return c
			})
			if d := float32(MaxAbsDiff(asm, gob)); d > gemmTol(k) {
				t.Errorf("bf16=%v (%d,%d,%d): AVX2 and Go bodies differ by %g", bf16, m, n, k, d)
			}
		}
	}
}
