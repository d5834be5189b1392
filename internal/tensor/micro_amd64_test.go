package tensor

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"harvest/internal/quant"
	"harvest/internal/stats"
)

// TestMicroDispatchPicksAsm: on a CPU with AVX2 and FMA, the float and
// int8 GEMMs and every per-element pass must run their assembly bodies.
// A silent fallback to the Go bodies is still correct, so no other test
// would notice the loss.
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
	got, want := reflect.ValueOf(vec), reflect.ValueOf(vecAVX2)
	for i := range got.NumField() {
		if got.Field(i).Pointer() != want.Field(i).Pointer() {
			t.Errorf("vector dispatch did not pick the AVX2 %s body", got.Type().Field(i).Name)
		}
	}
	if Kernels != "avx2" {
		t.Errorf("Kernels = %q, want avx2", Kernels)
	}
}

// vecRowLens are the row lengths the vector bodies are checked at:
// every length up to 70 (whole groups of eight, tails, rows shorter
// than one group) and two model widths, 257 tokens and 768 features.
var vecRowLens = append(func() (ls []int) {
	for n := range 71 {
		ls = append(ls, n)
	}
	return ls
}(), 257, 768)

// requireSameFloats fails unless got and want agree bit for bit.
func requireSameFloats(t *testing.T, what string, got, want []float32) {
	t.Helper()
	for i := range want {
		if g, w := math.Float32bits(got[i]), math.Float32bits(want[i]); g != w {
			t.Fatalf("%s: element %d is %v (%#08x), want %v (%#08x)", what, i, got[i], g, want[i], w)
		}
	}
}

// vecSpecials are the values IEEE arithmetic treats apart: signed
// zeros, the smallest and largest subnormals, the largest finite values,
// infinities and a NaN.
var vecSpecials = []float32{0, float32(math.Copysign(0, -1)),
	math.Float32frombits(1), math.Float32frombits(0x807fffff),
	math.MaxFloat32, -math.MaxFloat32,
	float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN())}

// around returns x and its n float32 neighbours on each side.
func around(x float32, n int) []float32 {
	out := []float32{x}
	up, down := x, x
	for range n {
		up, down = math.Nextafter32(up, float32(math.Inf(1))), math.Nextafter32(down, float32(math.Inf(-1)))
		out = append(out, up, down)
	}
	return out
}

// vecRows builds the rows of length n the bodies are compared on: random
// values at several spreads, a row drawn from extra (edge values), and
// one that also holds a special value.
func vecRows(r *stats.RNG, n int, extra []float32) [][]float32 {
	var rows [][]float32
	for _, spread := range []float64{1e-3, 1, 30, 200} {
		row := make([]float32, n)
		for i := range row {
			row[i] = float32((r.Float64()*2 - 1) * spread)
		}
		rows = append(rows, row)
	}
	if n == 0 {
		return rows
	}
	edge := make([]float32, n)
	for i := range edge {
		edge[i] = extra[r.Intn(len(extra))]
	}
	rows = append(rows, edge)
	for _, s := range vecSpecials {
		row := slices.Clone(edge)
		row[r.Intn(n)] = s
		rows = append(rows, row)
	}
	return rows
}

// TestVecBodiesAgree runs every AVX2 per-element body and its Go body on
// the same rows and wants the same bits: the epilogue's bias add, GELU
// and softmax (at the attention scale, 1, and −1, which drives exp to
// its upper clamp) over vecRowLens, with values at and just past the
// exp clamp edges and the specials.
func TestVecBodiesAgree(t *testing.T) {
	if !hasAVX2FMA() {
		t.Skip("CPU has no AVX2: the Go bodies are the only ones")
	}
	// GELU's exp argument is geluB·(x + geluA·x³): find the x where it
	// crosses each clamp edge and take the neighbouring float32s.
	geluArg := func(x float32) float32 { return geluB * (x + geluA*x*x*x) }
	cross := func(from, step float32, past func(float32) bool) float32 {
		x := from
		for !past(geluArg(x)) {
			x += step
		}
		return x
	}
	var geluEdges []float32
	geluEdges = append(geluEdges, around(cross(10, 1.0/(1<<20), func(y float32) bool { return y < expMin }), 40)...)
	geluEdges = append(geluEdges, around(cross(-10, -1.0/(1<<20), func(y float32) bool { return y > expMax }), 40)...)
	geluEdges = append(geluEdges, 0, -1, 1, 3, -3, 20, -20, 1e10, -1e10)
	// Softmax's exp argument is (v − max)·scale: with a 0 in the row,
	// scale 1 puts v itself there and scale −1 puts −v.
	var smEdges []float32
	for _, e := range []float32{expMin, -expMax} {
		smEdges = append(smEdges, around(e, 8)...)
	}
	smEdges = append(smEdges, 0, -1, -10, -87, -89, -1e30)

	r := stats.NewRNG(51)
	for _, n := range vecRowLens {
		bias := make([]float32, n)
		for i := range bias {
			bias[i] = float32(r.Float64()*2 - 1)
		}
		for _, row := range vecRows(r, n, geluEdges) {
			check := func(what string, f func(vecBodies, []float32)) {
				got, want := slices.Clone(row), slices.Clone(row)
				f(vecAVX2, got)
				f(vecGo, want)
				requireSameFloats(t, fmt.Sprintf("%s n=%d", what, n), got, want)
			}
			check("bias", func(v vecBodies, x []float32) { v.bias(x, bias) })
			check("gelu", func(v vecBodies, x []float32) { v.gelu(x) })
		}
		for _, row := range vecRows(r, n, smEdges) {
			if n > 0 {
				row[r.Intn(n)] = 0
			}
			for _, scale := range []float32{0.125, 1, -1} {
				got, want := slices.Clone(row), slices.Clone(row)
				vecAVX2.softmax(got, scale)
				vecGo.softmax(want, scale)
				requireSameFloats(t, fmt.Sprintf("softmax n=%d scale=%v", n, scale), got, want)
			}
		}
	}
}

// TestSoftmaxSumOrder pins the AVX2 softmax's float64 row sum to the Go
// body's order — pair sums, then a running sum in row order — bit for
// bit. The final float32(1/sum) rounds away most reorderings, so
// TestVecBodiesAgree alone would not see one; rows whose exponentials
// span 30 orders of magnitude make float64 rounding order-dependent.
func TestSoftmaxSumOrder(t *testing.T) {
	if !hasAVX2FMA() {
		t.Skip("CPU has no AVX2: the Go body is the only one")
	}
	r := stats.NewRNG(54)
	for n := 8; n <= 768; n += 8 {
		row := make([]float32, n)
		for i := range row {
			row[i] = float32(-70 * r.Float64())
		}
		row[r.Intn(n)] = 0
		exps := slices.Clone(row)
		softmaxExp(exps, 0, 1, 0)
		var want float64
		for i := 0; i < n; i += 2 {
			want += float64(exps[i]) + float64(exps[i+1])
		}
		if got := softmaxExpAVX2(&row[0], n, 0, 1); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("n=%d: AVX2 row sum %v, the Go order gives %v", n, got, want)
		}
	}
}

// TestQ7QuantizeBodiesAgree: the AVX2 per-row calibrate-and-quantize
// gives the Go body's parameters and codes on random rows of every
// vecRowLens length — mixed, all positive, all negative, constant and
// zero — and on rows whose values sit exactly on ties k+0.5 of the
// code grid, which must round away from zero.
func TestQ7QuantizeBodiesAgree(t *testing.T) {
	if !hasAVX2FMA() {
		t.Skip("CPU has no AVX2: the Go body is the only one")
	}
	r := stats.NewRNG(52)
	check := func(what string, row []float32) {
		t.Helper()
		got, want := make([]uint8, len(row)), make([]uint8, len(row))
		gp, wp := vecAVX2.quantize(got, row), vecGo.quantize(want, row)
		if gp != wp || !bytes.Equal(got, want) {
			t.Fatalf("%s n=%d: AVX2 gives %+v %v, Go %+v %v", what, len(row), gp, got, wp, want)
		}
	}
	for _, n := range vecRowLens {
		for _, shape := range []struct {
			name         string
			spread, base float64
		}{{"mixed", 3, 0}, {"positive", 1, 2}, {"negative", 1, -2}, {"constant", 0, 5}, {"zero", 0, 0}} {
			row := make([]float32, n)
			for i := range row {
				row[i] = float32(shape.base + (r.Float64()*2-1)*shape.spread)
			}
			check(shape.name, row)
		}
		if n < 2 {
			continue
		}
		// [lo, hi] = ±63.5 (scale 1, zero point 64) and ±31.75 (scale
		// 0.5): every other value is a tie, k+0.5 after the division.
		for _, half := range []float32{63.5, 31.75} {
			step := 2 * half / 127
			row := make([]float32, n)
			row[0], row[1] = -half, half
			for i := 2; i < n; i++ {
				row[i] = (float32(r.Intn(127)) - 63 + 0.5) * step
			}
			check(fmt.Sprintf("ties ±%v", half), row)
		}
	}
}

// TestQ7DequantBodiesAgree: the AVX2 tile dequantization writes the Go
// body's bits for every tile height and width — full 16-column tiles
// take the assembly, narrower edge tiles the Go body — overwriting and
// accumulating, with raw sums large enough to round in float32, and
// leaves the rest of C alone.
func TestQ7DequantBodiesAgree(t *testing.T) {
	if !hasAVX2FMA() {
		t.Skip("CPU has no AVX2: the Go body is the only one")
	}
	r := stats.NewRNG(53)
	const ldc = gemmNR + 5
	var tile [gemmMR * gemmNR]int32
	for i := range tile {
		tile[i] = int32(r.Intn(1<<27)) - 1<<26
	}
	rows := make([]quant.Q7Params, gemmMR)
	for i := range rows {
		rows[i] = quant.Q7Params{Scale: float32(r.Float64() * 0.1), ZeroPoint: int32(r.Intn(128))}
	}
	scales, rowSum := make([]float32, gemmNR), make([]int32, gemmNR)
	for j := range scales {
		scales[j], rowSum[j] = float32(r.Float64()*0.05), int32(r.Intn(20000))-10000
	}
	prior := make([]float32, gemmMR*ldc)
	for i := range prior {
		prior[i] = float32(r.Float64()*2 - 1)
	}
	for mr := 1; mr <= gemmMR; mr++ {
		for nr := 1; nr <= gemmNR; nr++ {
			for _, acc := range []bool{false, true} {
				got, want := slices.Clone(prior), slices.Clone(prior)
				vecAVX2.dequant(got, ldc, &tile, rows[:mr], scales[:nr], rowSum[:nr], acc)
				vecGo.dequant(want, ldc, &tile, rows[:mr], scales[:nr], rowSum[:nr], acc)
				requireSameFloats(t, fmt.Sprintf("%d×%d accumulate=%v", mr, nr, acc), got, want)
			}
		}
	}
}

// TestQ7RoundingExhaustive proves the AVX2 quantizer's float32 rounding
// — trunc(|v|), +1 when the fraction is at least ½, v's sign — equal to
// the Go body's math.Round(float64(v)):
//   - for every float32 with 0.25 ≤ |v| ≤ 256, against the Go body at
//     scale 1 and a zero point that keeps each chunk's codes off the
//     clamp;
//   - for every float32 below 0.25 in magnitude, which math.Round takes
//     to zero, so every code must be the zero point. The kernel's own
//     division makes the quotients: the binade [1/8, 1/4) divided by 2ʲ
//     is every float32 of the binade j below it, exactly, down to 2⁻¹²⁶;
//     the subnormals and zero are enumerated.
func TestQ7RoundingExhaustive(t *testing.T) {
	if !hasAVX2FMA() {
		t.Skip("CPU has no AVX2: the Go body is the only one")
	}
	if testing.Short() || raceEnabled {
		t.Skip("2.3 billion values: not in -short or race runs")
	}
	const chunk = 1 << 16
	xs := make([]float32, chunk)
	got, want := make([]uint8, chunk), make([]uint8, chunk)
	fill := func(bits uint32) {
		for i := range xs {
			xs[i] = math.Float32frombits(bits + uint32(i))
		}
	}
	zeroPoint := func(scale float32) {
		q7QuantizeAVX2(&got[0], &xs[0], chunk, scale, 64)
		if n := bytes.Count(got, []byte{64}); n != chunk {
			t.Fatalf("|v| < 0.25 from %v/%v: %d of %d codes are not the zero point", xs[0], scale, chunk-n, chunk)
		}
	}
	for _, sign := range []uint32{0, 1 << 31} {
		for m := uint32(0); m < 1<<23; m += chunk {
			fill(sign | m)
			zeroPoint(1)
			fill(sign | math.Float32bits(0.125) | m)
			for j := 0; j <= 123; j++ {
				zeroPoint(float32(math.Ldexp(1, j)))
			}
		}
		for b := math.Float32bits(0.25); b <= math.Float32bits(256); b += chunk {
			fill(sign | b)
			// A chunk spans at most one unit here, so its codes stay
			// within ±2 of 64.
			p := quant.Q7Params{Scale: 1, ZeroPoint: 64 - int32(math.Round(float64(xs[0])))}
			q7QuantizeAVX2(&got[0], &xs[0], chunk, 1, float32(p.ZeroPoint))
			p.QuantizeInto(want, xs)
			if !bytes.Equal(got, want) {
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("v=%v (%#08x): code %d, math.Round gives %d", xs[i], math.Float32bits(xs[i]), got[i], want[i])
					}
				}
			}
		}
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
