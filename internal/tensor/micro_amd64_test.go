package tensor

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"harvest/internal/cpufeat"
	"harvest/internal/quant"
	"harvest/internal/stats"
)

// TestMicroDispatchPicksAsm: on a CPU with AVX2 and FMA, the float and
// int8 GEMMs and every per-element pass must run their assembly bodies,
// where the CPU has AVX-512 VNNI both GEMMs their 6×32 pair tiles and
// the passes their 16-lane set, and the int8 GEMM its AMX block body
// exactly where, beyond that, cpufeat.AMXInt8 holds (CPU bits, OS state
// and the kernel's grant).
// A silent fallback to the Go bodies or the narrower tiles is still
// correct, so no other test would notice the loss.
func TestMicroDispatchPicksAsm(t *testing.T) {
	if !cpufeat.AVX2FMA() {
		t.Skip("CPU has no AVX2/FMA: the Go bodies are the right pick")
	}
	same := func(a, b any) bool { return reflect.ValueOf(a).Pointer() == reflect.ValueOf(b).Pointer() }
	if !same(micro, microAVX2Body) {
		t.Error("float GEMM dispatch did not pick the AVX2/FMA body")
	}
	sameBody := func(a, b q7Body) bool { return same(a.micro, b.micro) && same(a.dequant, b.dequant) && a.nr == b.nr }
	if !sameBody(q7Strip, q7StripAVX2) {
		t.Error("int8 GEMM dispatch did not pick the AVX2 6×16 tile")
	}
	kernels := "avx2"
	if amx := cpufeat.AVX512VNNI() && cpufeat.AMXInt8(); amx != (q7Block != nil) {
		t.Errorf("AMX block body picked: %v, want %v", q7Block != nil, amx)
	} else if amx && !same(q7Block, q7AMXBody) {
		t.Error("int8 GEMM dispatch did not pick the AMX block body")
	}
	if cpufeat.AVX512VNNI() {
		kernels = "avx2+avx512vnni"
		if cpufeat.AMXInt8() {
			kernels += "+amx"
		}
		if !sameBody(q7Pair, q7PairVNNI) {
			t.Error("int8 GEMM dispatch did not pick the VNNI 6×32 pair tile")
		}
		if !same(microPair, microPairAVX512Body) {
			t.Error("float GEMM dispatch did not pick the AVX-512 6×32 pair tile")
		}
	} else {
		if q7Pair.nr != 0 {
			t.Errorf("int8 pair tile %d wide on a CPU without AVX-512 VNNI", q7Pair.nr)
		}
		if microPair != nil {
			t.Error("float pair tile picked on a CPU without AVX-512 VNNI")
		}
	}
	set, want := "AVX2", reflect.ValueOf(vecAVX2)
	if cpufeat.AVX512VNNI() {
		set, want = "AVX-512", reflect.ValueOf(vecAVX512)
	}
	got := reflect.ValueOf(vec)
	for i := range got.NumField() {
		if got.Field(i).Pointer() != want.Field(i).Pointer() {
			t.Errorf("vector dispatch did not pick the %s %s body", set, got.Type().Field(i).Name)
		}
	}
	if Kernels != kernels {
		t.Errorf("Kernels = %q, want %q", Kernels, kernels)
	}
}

// vecRowLens are the row lengths the vector bodies are checked at:
// every length up to 70 (whole groups of eight and sixteen, tails, rows
// shorter than one group) and three model widths, 192 features, 257
// tokens and 768 features.
var vecRowLens = append(func() (ls []int) {
	for n := range 71 {
		ls = append(ls, n)
	}
	return ls
}(), 192, 257, 768)

// vecSets returns the assembly sets this CPU can run, by name.
func vecSets() map[string]vecBodies {
	sets := map[string]vecBodies{"AVX2": vecAVX2}
	if cpufeat.AVX512VNNI() {
		sets["AVX-512"] = vecAVX512
	}
	return sets
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

// TestVecBodiesAgree runs every assembly per-element body — the AVX2
// set, and the AVX-512 set where the CPU has it — and its Go body on the
// same rows and wants the same bits: the epilogue's bias add, GELU and
// softmax (at the attention scale, 1, and −1, which drives exp to its
// upper clamp) and the quantizer's min/max over vecRowLens, with values
// at and just past the exp clamp edges and the specials; and softmax
// over blocks of 1…9 rows at a row stride wider than the row, so the
// 16-lane body's four-row groups and its last rows both run.
func TestVecBodiesAgree(t *testing.T) {
	if !cpufeat.AVX2FMA() {
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
	minMaxRow := map[string]func([]float32) (float32, float32){"AVX2": minMaxAVX2Row, "AVX-512": minMaxAVX512Row}

	r := stats.NewRNG(51)
	for name, v := range vecSets() {
		for _, n := range vecRowLens {
			bias := make([]float32, n)
			for i := range bias {
				bias[i] = float32(r.Float64()*2 - 1)
			}
			for _, row := range vecRows(r, n, geluEdges) {
				check := func(what string, f func(vecBodies, []float32)) {
					got, want := slices.Clone(row), slices.Clone(row)
					f(v, got)
					f(vecGo, want)
					requireSameFloats(t, fmt.Sprintf("%s %s n=%d", name, what, n), got, want)
				}
				check("bias", func(v vecBodies, x []float32) { v.bias(x, bias) })
				check("gelu", func(v vecBodies, x []float32) { v.gelu(x) })
				if n == 0 {
					continue
				}
				lo, hi := minMaxRow[name](row)
				wlo, whi := minMaxTail(row, row[0], row[0])
				if math.Float32bits(lo) != math.Float32bits(wlo) || math.Float32bits(hi) != math.Float32bits(whi) {
					t.Fatalf("%s min/max n=%d: %v %v, the Go scan gives %v %v", name, n, lo, hi, wlo, whi)
				}
			}
			for _, row := range vecRows(r, n, smEdges) {
				if n > 0 {
					row[r.Intn(n)] = 0
				}
				for _, scale := range []float32{0.125, 1, -1} {
					got, want := slices.Clone(row), slices.Clone(row)
					v.softmax(got, n, 1, n, scale)
					vecGo.softmax(want, n, 1, n, scale)
					requireSameFloats(t, fmt.Sprintf("%s softmax n=%d scale=%v", name, n, scale), got, want)
				}
			}
			ldc := n + 3
			for m := 1; m <= 9; m++ {
				block := make([]float32, (m-1)*ldc+n)
				for i := range block {
					block[i] = float32(-40 * r.Float64())
				}
				got, want := slices.Clone(block), slices.Clone(block)
				v.softmax(got, ldc, m, n, 0.125)
				vecGo.softmax(want, ldc, m, n, 0.125)
				requireSameFloats(t, fmt.Sprintf("%s softmax of %d rows n=%d", name, m, n), got, want)
			}
		}
	}
}

// TestSoftmaxSumOrder pins the assembly softmax's float64 row sum to the
// Go body's order — pair sums, then a running sum in row order — bit
// for bit, for the 8-lane body and the 16-lane four-row body (each row's
// sum against its own Go sum). The final float32(1/sum) rounds away most
// reorderings, so TestVecBodiesAgree alone would not see one; rows whose
// exponentials span 30 orders of magnitude make float64 rounding
// order-dependent.
func TestSoftmaxSumOrder(t *testing.T) {
	if !cpufeat.AVX2FMA() {
		t.Skip("CPU has no AVX2: the Go body is the only one")
	}
	r := stats.NewRNG(54)
	row := func(n int) []float32 {
		row := make([]float32, n)
		for i := range row {
			row[i] = float32(-70 * r.Float64())
		}
		row[r.Intn(n)] = 0
		return row
	}
	goSum := func(row []float32) float64 {
		exps := slices.Clone(row)
		softmaxExp(exps, 0, 1, 0)
		var sum float64
		i := 0
		for ; i+1 < len(exps); i += 2 {
			sum += float64(exps[i]) + float64(exps[i+1])
		}
		if i < len(exps) {
			sum += float64(exps[i])
		}
		return sum
	}
	for n := 8; n <= 768; n += 8 {
		x := row(n)
		want := goSum(x)
		if got := softmaxExpAVX2(&x[0], n, 0, 1); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("n=%d: AVX2 row sum %v, the Go order gives %v", n, got, want)
		}
	}
	if !cpufeat.AVX512VNNI() {
		return
	}
	for _, n := range vecRowLens[1:] {
		ldc := n + 5
		block := make([]float32, 7*ldc+n)
		var want [8]float64
		for i := range want {
			copy(block[i*ldc:], row(n))
			want[i] = goSum(block[i*ldc:][:n])
		}
		var sums [8]float64
		softmaxAVX512x8(&block[0], ldc, n, 1, &sums)
		for i, got := range sums {
			if math.Float64bits(got) != math.Float64bits(want[i]) {
				t.Fatalf("n=%d: AVX-512 row %d sum %v, the Go order gives %v", n, i, got, want[i])
			}
		}
	}
}

// TestQ7QuantizeBodiesAgree: each assembly per-row calibrate-and-quantize
// gives the Go body's parameters and codes on random rows of every
// vecRowLens length — mixed, all positive, all negative, constant and
// zero — and on rows whose values sit exactly on ties k+0.5 of the
// code grid, which must round away from zero.
func TestQ7QuantizeBodiesAgree(t *testing.T) {
	if !cpufeat.AVX2FMA() {
		t.Skip("CPU has no AVX2: the Go body is the only one")
	}
	r := stats.NewRNG(52)
	check := func(what string, row []float32) {
		t.Helper()
		for name, v := range vecSets() {
			got, want := make([]uint8, len(row)), make([]uint8, len(row))
			gp, wp := v.quantize(got, row), vecGo.quantize(want, row)
			if gp != wp || !bytes.Equal(got, want) {
				t.Fatalf("%s n=%d: %s gives %+v %v, Go %+v %v", what, len(row), name, gp, got, wp, want)
			}
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

// TestQ7DequantBodiesAgree: each assembly dequantization — AVX2 over
// groups of 16 columns, AVX-512 over groups of 32 where the CPU has it,
// each handing the rest to the narrower body — writes the Go body's bits
// for every height up to an MR tile and every width up to 70 columns,
// from tile rows as wide as the written corner and from rows as far
// apart as the AMX block's sums, overwriting and accumulating, with raw
// sums large enough to round in float32, and leaves the rest of C alone.
func TestQ7DequantBodiesAgree(t *testing.T) {
	if !cpufeat.AVX2FMA() {
		t.Skip("CPU has no AVX2: the Go body is the only one")
	}
	bodies := []q7Body{q7StripAVX2}
	if cpufeat.AVX512VNNI() {
		bodies = append(bodies, q7PairVNNI)
	}
	r := stats.NewRNG(53)
	const maxN, wideT = 70, 80
	const ldc = wideT + 5
	tile := make([]int32, gemmMR*wideT)
	for i := range tile {
		tile[i] = int32(r.Intn(1<<27)) - 1<<26
	}
	rows := make([]quant.Q7Params, gemmMR)
	for i := range rows {
		rows[i] = quant.Q7Params{Scale: float32(r.Float64() * 0.1), ZeroPoint: int32(r.Intn(128))}
	}
	scales, rowSum := make([]float32, maxN), make([]int32, maxN)
	for j := range scales {
		scales[j], rowSum[j] = float32(r.Float64()*0.05), int32(r.Intn(20000))-10000
	}
	prior := make([]float32, gemmMR*ldc)
	for i := range prior {
		prior[i] = float32(r.Float64()*2 - 1)
	}
	for _, body := range bodies {
		for mr := 1; mr <= gemmMR; mr++ {
			for nr := 1; nr <= maxN; nr++ {
				for _, ldt := range []int{nr, wideT} {
					for _, acc := range []bool{false, true} {
						got, want := slices.Clone(prior), slices.Clone(prior)
						body.dequant(got, ldc, tile, ldt, rows[:mr], scales[:nr], rowSum[:nr], acc)
						q7DequantGo(want, ldc, tile, ldt, rows[:mr], scales[:nr], rowSum[:nr], acc)
						requireSameFloats(t, fmt.Sprintf("%d-wide body, %d×%d from rows %d apart, accumulate=%v",
							body.nr, mr, nr, ldt, acc), got, want)
					}
				}
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
	if !cpufeat.AVX2FMA() {
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

// TestPackBodiesAgree: the AVX2 transposing B packs give the Go bodies'
// bits. Every float16 and bfloat16 word — all 65536 of each, subnormals,
// infinities and NaNs included — goes through full strips; float32 rows
// holding the specials go through full and partial strips, for kc with
// and without a tail shorter than eight, at row strides equal to and
// wider than kc.
func TestPackBodiesAgree(t *testing.T) {
	if !cpufeat.AVX2FMA() {
		t.Skip("CPU has no AVX2/F16C: the Go bodies are the only ones")
	}
	const rowLen = 1 << 16 / gemmNR
	words := make([]uint16, 1<<16)
	for i := range words {
		words[i] = uint16(i)
	}
	for _, bf16 := range []bool{false, true} {
		for kOff := 0; kOff < rowLen; kOff += gemmKC {
			got, want := make([]float32, gemmNR*gemmKC), make([]float32, gemmNR*gemmKC)
			vecAVX2.packTHalf(got, words[kOff:], rowLen, gemmNR, bf16)
			vecGo.packTHalf(want, words[kOff:], rowLen, gemmNR, bf16)
			requireSameFloats(t, fmt.Sprintf("bf16=%v words %d..", bf16, kOff), got, want)
		}
	}
	r := stats.NewRNG(58)
	for _, kc := range []int{1, 7, 8, 9, 15, 16, 17, 63, 64, 256} {
		for _, ld := range []int{kc, kc + 3} {
			src, half := make([]float32, gemmNR*ld), make([]uint16, gemmNR*ld)
			for i := range src {
				src[i] = float32(r.Float64()*2 - 1)
				if r.Intn(4) == 0 {
					src[i] = vecSpecials[r.Intn(len(vecSpecials))]
				}
				half[i] = uint16(r.Uint64())
			}
			prior := randTensor(r, gemmNR*kc).Data
			for w := 1; w <= gemmNR; w++ {
				what := fmt.Sprintf("kc=%d ld=%d w=%d", kc, ld, w)
				got, want := slices.Clone(prior), slices.Clone(prior)
				vecAVX2.packT(got, src, ld, w)
				vecGo.packT(want, src, ld, w)
				requireSameFloats(t, what, got, want)
				for _, bf16 := range []bool{false, true} {
					got, want := slices.Clone(prior), slices.Clone(prior)
					vecAVX2.packTHalf(got, half, ld, w, bf16)
					vecGo.packTHalf(want, half, ld, w, bf16)
					requireSameFloats(t, fmt.Sprintf("%s bf16=%v", what, bf16), got, want)
				}
			}
		}
	}
}

// TestQ7BodiesAgree: the int8 bodies are exact, so they must agree bit
// for bit.
//   - On one A strip read in place (rows lda apart, with bytes between
//     them that no body may read) and two adjacent weight strips, for kg
//     1…70 and 192, random and all-extreme codes (127 × ±63): the VNNI
//     pair body equals the AVX2 and the Go 6×16 bodies run on each strip.
//   - Where the host has AMX, on three 16-row A tiles and three strips
//     over the same kg, lda and codes (so every 2×2, 2×1, 1×2 and 1×1
//     tile block, whole K blocks, a K tail and both), the AMX body's raw
//     sums equal the scalar sums and leave C's columns past the strips
//     alone.
//   - Through Q7GemmTransB, with the dispatch set to each tile in turn,
//     every q7Shapes entry and a saturation case (all codes at the range
//     ends, K = 4096) equal the scalar reference.
func TestQ7BodiesAgree(t *testing.T) {
	if !cpufeat.AVX2FMA() {
		t.Skip("CPU has no AVX2: the Go body is the only one")
	}
	vnni := cpufeat.AVX512VNNI()
	amx := vnni && cpufeat.AMXInt8()
	r := stats.NewRNG(49)
	kgs := []int{192}
	for kg := 1; kg <= 70; kg++ {
		kgs = append(kgs, kg)
	}
	for _, kg := range kgs {
		for _, lda := range []int{4 * kg, 4*kg + 13} {
			a := bytes.Repeat([]uint8{255}, (gemmMR-1)*lda+4*kg)
			b := make([]uint8, 4*gemmPairNR*kg)
			for _, extreme := range []bool{false, true} {
				for i := 0; i < gemmMR; i++ {
					for p := 0; p < 4*kg; p++ {
						a[i*lda+p] = uint8(r.Intn(128))
						if extreme {
							a[i*lda+p] = 127
						}
					}
				}
				for i := range b {
					b[i] = uint8(int8(r.Intn(127) - 63))
					if extreme {
						b[i] = uint8(int8(63 - 126*r.Intn(2)))
					}
				}
				what := fmt.Sprintf("kg=%d lda=%d extreme=%v", kg, lda, extreme)
				var goT, asmT [2]q7Tile
				for s := range 2 {
					q7MicroGo(a, lda, b[s*4*gemmNR*kg:], kg, &goT[s])
					q7MicroAVX2Body(a, lda, b[s*4*gemmNR*kg:], kg, &asmT[s])
					requireSameInts(t, fmt.Sprintf("AVX2 vs Go, strip %d, %s", s, what),
						asmT[s][:gemmMR*gemmNR], goT[s][:gemmMR*gemmNR])
				}
				if !vnni {
					continue
				}
				var pair q7Tile
				q7MicroVNNIBody(a, lda, b, kg, &pair)
				for i := 0; i < gemmMR; i++ {
					for s := range 2 {
						requireSameInts(t, fmt.Sprintf("VNNI vs Go, row %d strip %d, %s", i, s, what),
							pair[i*gemmPairNR+s*gemmNR:][:gemmNR], goT[s][i*gemmNR:][:gemmNR])
					}
				}
				if amx {
					checkAMXBody(t, r, kg, lda, extreme, what)
				}
			}
		}
	}

	defer func(s, p q7Body, b q7BlockKernel) { q7Strip, q7Pair, q7Block = s, p, b }(q7Strip, q7Pair, q7Block)
	type dispatch struct {
		name        string
		strip, pair q7Body
		block       q7BlockKernel
	}
	dispatches := []dispatch{{"AVX2", q7StripAVX2, q7Body{}, nil}, {"Go", q7StripGo, q7Body{}, nil}}
	if vnni {
		dispatches = append(dispatches, dispatch{"VNNI", q7StripAVX2, q7PairVNNI, nil})
	}
	if amx {
		dispatches = append(dispatches, dispatch{"AMX", q7StripAVX2, q7PairVNNI, q7AMXBody})
	}
	check := func(what string, acts []uint8, ws []int8, m, n, k int) {
		want := make([]int32, m*n)
		Q7GemmTransBRef(want, acts, ws, m, n, k)
		pa, pw := PackQ7Acts(acts, m, k), PackQ7Weights(ws, n, k)
		for _, d := range dispatches {
			q7Strip, q7Pair, q7Block = d.strip, d.pair, d.block
			got := make([]int32, m*n)
			Q7GemmTransB(got, pa, pw)
			requireSameInts(t, fmt.Sprintf("%s dispatch %s", d.name, what), got, want)
		}
	}
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

// checkAMXBody runs the AMX block body on three 16-row tiles of A codes
// (rows lda apart, 255 between them, which it must not read) and three
// weight strips of kg groups into a C wider than the strips, against the
// scalar sums.
func checkAMXBody(t *testing.T, r *stats.RNG, kg, lda int, extreme bool, what string) {
	t.Helper()
	const mt, nt, ldc = 3, 3, 3*gemmNR + 7
	a := bytes.Repeat([]uint8{255}, (16*mt-1)*lda+4*kg)
	for i := 0; i < 16*mt; i++ {
		for p := 0; p < 4*kg; p++ {
			a[i*lda+p] = uint8(r.Intn(128))
			if extreme {
				a[i*lda+p] = 127
			}
		}
	}
	b := make([]uint8, 4*gemmNR*kg*nt)
	for i := range b {
		b[i] = uint8(int8(r.Intn(127) - 63))
		if extreme {
			b[i] = uint8(int8(63 - 126*r.Intn(2)))
		}
	}
	want := make([]int32, 16*mt*ldc)
	for i := range want {
		want[i] = -7
	}
	for i := 0; i < 16*mt; i++ {
		for j := 0; j < gemmNR*nt; j++ {
			var sum int32
			for p := 0; p < 4*kg; p++ {
				sum += int32(a[i*lda+p]) * int32(int8(b[j/gemmNR*4*gemmNR*kg+p/4*4*gemmNR+j%gemmNR*4+p%4]))
			}
			want[i*ldc+j] = sum
		}
	}
	got := make([]int32, 16*mt*ldc)
	for i := range got {
		got[i] = -7
	}
	q7AMXBody(a, lda, b, kg, got, ldc, mt, nt)
	requireSameInts(t, "AMX block vs scalar, "+what, got, want)
}

// TestMicroBodiesAgree runs the AVX2/FMA body and the Go body over the
// same packed strips — every gemmShapes entry plus the float16/bfloat16
// path, with the pair tile off — so the fallback the dispatch picks on
// other CPUs is exercised on every run here.
func TestMicroBodiesAgree(t *testing.T) {
	if !cpufeat.AVX2FMA() {
		t.Skip("CPU has no AVX2/FMA: the Go body is the only one")
	}
	defer func(k, p microKernel) { micro, microPair = k, p }(micro, microPair)
	microPair = nil
	both := func(f func() *Tensor) (asm, gob *Tensor) {
		micro = microAVX2Body
		asm = f()
		micro = microGo
		return asm, f()
	}
	r := stats.NewRNG(48)
	// The bodies themselves on one 6-row A strip read in place: rows lda
	// apart with NaN between them, which neither body may read, into a C
	// tile at a wider row stride.
	for _, kc := range []int{1, 2, 7, 64, 255, 256} {
		for _, lda := range []int{kc, kc + 1, kc + 13} {
			a := filled((gemmMR-1)*lda+kc, float32(math.NaN()))
			for i := 0; i < gemmMR; i++ {
				for p := 0; p < kc; p++ {
					a[i*lda+p] = float32(r.Float64()*2 - 1)
				}
			}
			bp := randTensor(r, kc*gemmNR).Data
			const ldc = gemmNR + 3
			prior := randTensor(r, gemmMR*ldc).Data
			asm, gob := slices.Clone(prior), slices.Clone(prior)
			microAVX2Body(a, lda, bp, kc, asm, ldc)
			microGo(a, lda, bp, kc, gob, ldc)
			for i, v := range asm {
				if d := v - gob[i]; !(d <= gemmTol(kc) && d >= -gemmTol(kc)) {
					t.Fatalf("kc=%d lda=%d: element %d is %v from AVX2, %v from Go", kc, lda, i, v, gob[i])
				}
			}
		}
	}
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

// TestMicroPairMatchesStrips: the AVX-512 pair tile gives the AVX2 6×16
// tile's bits, compared with ==.
//   - The bodies on one 6-row A strip read in place — rows lda apart with
//     NaN between them, which no body may read — and two adjacent packed
//     strips, into a C tile with prior contents at a row stride wider
//     than the tile: the pair body equals two AVX2 calls, one per strip,
//     padding columns included.
//   - The dispatched GEMM equals the strip-only one on every gemmShapes
//     entry and on m ∈ {1,5,6,7,514} × n ∈ {16,17,31,32,33,48,257,1000}
//     at k 7 and 300: B row-major (the conv layout) and transposed,
//     accumulating into prior contents and overwriting them, the
//     bias+GELU and softmax epilogues, and float16 and bfloat16 B.
func TestMicroPairMatchesStrips(t *testing.T) {
	if microPair == nil {
		t.Skip("CPU has no AVX-512 VNNI: the 6×16 tile is the only one")
	}
	r := stats.NewRNG(60)
	for _, kc := range []int{1, 2, 7, 64, 255, 256} {
		for _, lda := range []int{kc, kc + 1, kc + 13} {
			a := filled((gemmMR-1)*lda+kc, float32(math.NaN()))
			for i := 0; i < gemmMR; i++ {
				for p := 0; p < kc; p++ {
					a[i*lda+p] = float32(r.Float64()*2 - 1)
				}
			}
			bp := randTensor(r, gemmPairNR*kc).Data
			const ldc = gemmPairNR + 3
			prior := randTensor(r, gemmMR*ldc).Data
			got, want := slices.Clone(prior), slices.Clone(prior)
			microPairAVX512Body(a, lda, bp, kc, got, ldc)
			microAVX2Body(a, lda, bp, kc, want, ldc)
			microAVX2Body(a, lda, bp[gemmNR*kc:], kc, want[gemmNR:], ldc)
			requireSameFloats(t, fmt.Sprintf("pair body kc=%d lda=%d", kc, lda), got, want)
		}
	}

	shapes := slices.Clone(gemmShapes)
	for _, m := range []int{1, 5, 6, 7, 514} {
		for _, n := range []int{16, 17, 31, 32, 33, 48, 257, 1000} {
			shapes = append(shapes, [3]int{m, n, 7}, [3]int{m, n, 300})
		}
	}
	for _, s := range shapes {
		m, n, k := s[0], s[1], s[2]
		a, b, bt := randTensor(r, m, k).Data, randTensor(r, k, n).Data, randTensor(r, n, k).Data
		prior, bias := randTensor(r, m, n).Data, randTensor(r, n).Data
		f16, bf16 := make([]uint16, n*k), make([]uint16, n*k)
		for i, v := range bt {
			f16[i], bf16[i] = uint16(quant.FromFloat32(v)), uint16(quant.BF16FromFloat32(v))
		}
		products := []struct {
			name string
			g    gemm
		}{
			{"B accumulate", gemm{b: b, ldb: n}},
			{"B overwrite", gemm{b: b, ldb: n, zero: true}},
			{"Bᵀ accumulate", gemm{b: bt, ldb: k, transB: true}},
			{"Bᵀ bias+GELU", gemm{b: bt, ldb: k, transB: true, zero: true, epi: Epilogue{Bias: bias, GELU: true}}},
			{"Bᵀ softmax", gemm{b: bt, ldb: k, transB: true, zero: true, epi: Epilogue{SoftmaxScale: 0.125}}},
			{"float16 Bᵀ", gemm{bh: f16, ldb: k, transB: true}},
			{"bfloat16 Bᵀ", gemm{bh: bf16, ldb: k, transB: true, bf16: true}},
		}
		for _, p := range products {
			g := p.g
			g.a, g.lda, g.ldc, g.m, g.n, g.k = a, k, n, m, n, k
			got, want := slices.Clone(prior), slices.Clone(prior)
			g.c = got
			g.run()
			g.c = want
			WithoutAVX512(g.run)
			requireSameFloats(t, fmt.Sprintf("%s (%d,%d,%d)", p.name, m, n, k), got, want)
		}
	}
}

// TestLayerNormBodiesAgree: the AVX-512 row-lane LayerNorm gives the Go
// body's bits, compared with ==.
//   - The body against layerNormGo over 1…17 rows (every tail of a group
//     of eight) and widths that are and are not multiples of 16, from src
//     rows n and n+5 apart (NaN between them, which neither may read)
//     and in place; rows at 1, 2⁶⁰ and 2⁻⁶⁰, rows mixing the three,
//     constant rows and rows holding a special value. Nothing past the
//     m·n values of dst is written.
//   - The float64 mean and Σd²/n of one group of eight rows against the
//     Go body's, bit for bit (float32(inv) rounds away most changes to
//     the chains' order or an FMA in them), over the same widths.
//   - The Norm epilogue of the packed float GEMM (one and two bands), of
//     its bfloat16-B form and of the int8 linear against the product
//     without it, then layerNormGo: the product and the norm both
//     bit-equal.
func TestLayerNormBodiesAgree(t *testing.T) {
	if !cpufeat.AVX512VNNI() {
		t.Skip("CPU has no AVX-512: the Go body is the only one")
	}
	r := stats.NewRNG(62)
	rowValue := func(kind, j int) float32 {
		v := float32(r.Float64()*2 - 1)
		switch kind {
		case 1:
			return v * (1 << 60)
		case 2:
			return v / (1 << 60)
		case 3:
			return v * float32(math.Ldexp(1, 60*(j%3-1)))
		case 4:
			return 3.25
		}
		return v
	}
	const sentinel = 12345
	for _, n := range []int{1, 7, 15, 16, 17, 33, 192, 200} {
		g, b := randTensor(r, n).Data, randTensor(r, n).Data
		for m := 1; m <= 17; m++ {
			for _, ld := range []int{n, n + 5} {
				src := filled((m-1)*ld+n, float32(math.NaN()))
				for i := 0; i < m; i++ {
					for j := 0; j < n; j++ {
						src[i*ld+j] = rowValue((i+m)%5, j)
					}
				}
				if m > 2 {
					src[(m-2)*ld+r.Intn(n)] = vecSpecials[r.Intn(len(vecSpecials))]
				}
				got, want := filled(m*n+16, sentinel), filled(m*n+16, sentinel)
				vecAVX512.norm(got, src, m, n, ld, g, b, 1e-6)
				layerNormGo(want, src, m, n, ld, g, b, 1e-6)
				requireSameFloats(t, fmt.Sprintf("%d rows of %d at stride %d", m, n, ld), got, want)
				if ld == n {
					got, want := slices.Clone(src), slices.Clone(src)
					vecAVX512.norm(got, got, m, n, n, g, b, 1e-6)
					layerNormGo(want, want, m, n, n, g, b, 1e-6)
					requireSameFloats(t, fmt.Sprintf("%d rows of %d in place", m, n), got, want)
				}
			}
		}
	}

	for _, n := range []int{1, 7, 15, 16, 17, 33, 192, 200} {
		for kind := range 5 {
			src := make([]float32, 8*n)
			for i := range src {
				src[i] = rowValue((kind+i/n)%5, i%n)
			}
			var want, got [2][8]float64
			for r := range 8 {
				row := src[r*n : r*n+n]
				var mean, varacc float64
				for _, v := range row {
					mean += float64(v)
				}
				mean /= float64(n)
				for _, v := range row {
					d := float64(v) - mean
					varacc += d * d
				}
				want[0][r], want[1][r] = mean, varacc/float64(n)
			}
			dst, g := make([]float32, 8*n), filled(n, 1)
			layerNormAVX512(&dst[0], &src[0], 1, n, n, &g[0], &g[0], 1e-6, &got)
			for i, what := range []string{"mean", "variance"} {
				for r := range 8 {
					if math.Float64bits(got[i][r]) != math.Float64bits(want[i][r]) {
						t.Fatalf("n=%d row %d (kind %d): %s %v, the Go chain gives %v", n, r, (kind+r)%5, what, got[i][r], want[i][r])
					}
				}
			}
		}
	}

	for _, s := range [][3]int{{1, 17, 9}, {8, 192, 33}, {17, 200, 64}, {514, 192, 48}} {
		m, n, k := s[0], s[1], s[2]
		a, w := randTensor(r, m, k).Data, randTensor(r, n, k).Data
		prior, bias, g, b := randTensor(r, m, n).Data, randTensor(r, n).Data, randTensor(r, n).Data, randTensor(r, n).Data
		codes, scales := make([]int8, n*k), make([]float32, n)
		for j := range scales {
			row := w[j*k : j*k+k]
			scales[j] = quant.CalibrateQ7Sym(row)
			quant.QuantizeQ7SymInto(codes[j*k:j*k+k], row, scales[j])
		}
		packed := PackQ7Weights(codes, n, k)
		half := make([]uint16, n*k)
		for i, v := range w {
			half[i] = uint16(quant.BF16FromFloat32(v))
		}
		for _, p := range []struct {
			name string
			run  func(c []float32, epi Epilogue)
		}{
			{"float", func(c []float32, epi Epilogue) { GemmTransBEpilogue(c, a, w, m, n, k, true, epi) }},
			{"bfloat16", func(c []float32, epi Epilogue) { GemmTransBF16Epilogue(c, a, half, m, n, k, true, true, epi) }},
			{"int8", func(c []float32, epi Epilogue) { Q7LinearEpilogue(c, a, m, k, packed, scales, true, epi) }},
		} {
			got, want := slices.Clone(prior), slices.Clone(prior)
			gotN, wantN := make([]float32, m*n), make([]float32, m*n)
			p.run(got, Epilogue{Bias: bias, GELU: true, Norm: Norm{Dst: gotN, Gamma: g, Beta: b, Eps: 1e-6}})
			p.run(want, Epilogue{Bias: bias, GELU: true})
			layerNormGo(wantN, want, m, n, n, g, b, 1e-6)
			requireSameFloats(t, fmt.Sprintf("%s product (%d,%d,%d)", p.name, m, n, k), got, want)
			requireSameFloats(t, fmt.Sprintf("%s product's norm (%d,%d,%d)", p.name, m, n, k), gotN, wantN)
		}
	}
}

// TestQ7AMXReleasesTiles: after every AMX block call — one tile config
// and two — the calling thread's tiles are released (STTILECFG reads
// palette 0), so no tile state outlives the call. The goroutine is
// locked to its thread so the check reads the thread the call ran on.
func TestQ7AMXReleasesTiles(t *testing.T) {
	if q7Block == nil {
		t.Skip("no AMX block body on this host")
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	const mt, nt = 2, 2
	for _, kg := range []int{5, 16, 21} {
		a, b := make([]uint8, 16*mt*4*kg), make([]uint8, 64*kg*nt)
		c := make([]int32, 16*mt*16*nt)
		q7AMXBody(a, 4*kg, b, kg, c, 16*nt, mt, nt)
		if p := amxPalette(); p != 0 {
			t.Errorf("kg=%d: tile palette %d after a call, want 0 (released)", kg, p)
		}
	}
}

// TestQ7AMXUnderPreemption: GOMAXPROCS goroutines run int8 products on
// the AMX tiles for a second — a raw one whose K needs two tile configs
// and a dequantized one, each forking its own row bands — while another
// goroutine forces collections, whose stop-the-world preempts running
// goroutines by signal, and each yields between products. Every result
// must be exact: the tile state survives signal delivery, and no tile
// state follows a goroutine to another thread.
func TestQ7AMXUnderPreemption(t *testing.T) {
	if q7Block == nil {
		t.Skip("no AMX block body on this host")
	}
	r := stats.NewRNG(64)
	const m, n, k = 130, 80, 200
	acts, ws := randQ7Codes(r, m, n, k)
	want := make([]int32, m*n)
	Q7GemmTransBRef(want, acts, ws, m, n, k)
	pa, pw := PackQ7Acts(acts, m, k), PackQ7Weights(ws, n, k)
	const kl = 192
	x := randTensor(r, m, kl).Data
	_, wl := randQ7Codes(r, 1, n, kl)
	pl, scales := PackQ7Weights(wl, n, kl), make([]float32, n)
	for j := range scales {
		scales[j] = float32(r.Float64() * 0.05)
	}
	wantF := make([]float32, m*n)
	q7LinearRef(wantF, x, m, n, kl, wl, scales, false, Epilogue{})

	stop := make(chan struct{})
	collector := make(chan struct{})
	go func() {
		defer close(collector)
		for {
			select {
			case <-stop:
				return
			default:
				runtime.GC()
			}
		}
	}()
	deadline := time.Now().Add(time.Second)
	errs := make(chan string, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for range runtime.GOMAXPROCS(0) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, gotF := make([]int32, m*n), make([]float32, m*n)
			for runs := 0; time.Now().Before(deadline); runs++ {
				Q7GemmTransB(got, pa, pw)
				if !slices.Equal(got, want) {
					errs <- fmt.Sprintf("raw product %d differs from the scalar reference", runs)
					return
				}
				runtime.Gosched()
				Q7LinearEpilogue(gotF, x, m, kl, pl, scales, false, Epilogue{})
				for i := range wantF {
					if math.Float32bits(gotF[i]) != math.Float32bits(wantF[i]) {
						errs <- fmt.Sprintf("linear %d: element %d is %v, want %v", runs, i, gotF[i], wantF[i])
						return
					}
				}
				runtime.Gosched()
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-collector
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
