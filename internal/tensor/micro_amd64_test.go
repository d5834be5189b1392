package tensor

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"harvest/internal/quant"
	"harvest/internal/stats"
)

// TestMicroDispatchPicksAsm: on a CPU with AVX2 and FMA, both the float
// and the int8 GEMM must run their assembly bodies. A silent fallback
// to the Go bodies is still correct, so no other test would notice the
// ~10× loss.
func TestMicroDispatchPicksAsm(t *testing.T) {
	if !hasAVX2FMA() {
		t.Skip("CPU has no AVX2/FMA: the Go bodies are the right pick")
	}
	same := func(a, b any) bool { return reflect.ValueOf(a).Pointer() == reflect.ValueOf(b).Pointer() }
	if !same(micro, microAVX2Body) {
		t.Error("float GEMM dispatch did not pick the AVX2/FMA body")
	}
	if !same(q7Micro, q7MicroAVX2Body) {
		t.Error("int8 GEMM dispatch did not pick the AVX2 body")
	}
}

// TestQ7BodiesAgree runs the AVX2 int8 body, the Go body and the scalar
// reference over every q7Shapes entry and a saturation case (all codes
// at the range ends, K = 4096): the products are exact integers, so all
// three must be equal.
func TestQ7BodiesAgree(t *testing.T) {
	if !hasAVX2FMA() {
		t.Skip("CPU has no AVX2: the Go body is the only one")
	}
	defer func(k q7Kernel) { q7Micro = k }(q7Micro)
	check := func(what string, acts []uint8, ws []int8, m, n, k int) {
		want := make([]int32, m*n)
		Q7GemmTransBRef(want, acts, ws, m, n, k)
		pa, pw := PackQ7Acts(acts, m, k), PackQ7Weights(ws, n, k)
		for _, body := range []struct {
			name string
			k    q7Kernel
		}{{"AVX2", q7MicroAVX2Body}, {"Go", q7MicroGo}} {
			q7Micro = body.k
			got := make([]int32, m*n)
			Q7GemmTransB(got, pa, pw)
			requireSameInts(t, fmt.Sprintf("%s body %s", body.name, what), got, want)
		}
	}
	r := stats.NewRNG(49)
	for _, s := range q7Shapes {
		m, n, k := s[0], s[1], s[2]
		acts, ws := randQ7Codes(r, m, n, k)
		check(fmt.Sprintf("(%d,%d,%d)", m, n, k), acts, ws, m, n, k)
	}
	const m, k = 7, 4096
	acts := bytes.Repeat([]uint8{127}, m*k)
	ws := make([]int8, 2*k)
	for i := range ws {
		ws[i] = 63 - 126*int8(i/k) // row 0 all +63, row 1 all -63
	}
	check("saturation", acts, ws, m, 2, k)
}

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
