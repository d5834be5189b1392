package tensor

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"

	"harvest/internal/quant"
	"harvest/internal/stats"
)

// gemmShapes deliberately hits the kernel's edge geometry: degenerate
// dims (m=1, n=1, k=1), sizes straddling the MR/NR/MC/KC/NC block
// boundaries (non-multiples on every axis), and skinny aspect ratios in
// both orientations.
var gemmShapes = [][3]int{
	{1, 1, 1}, {1, 7, 1}, {3, 1, 5}, {2, 4, 8},
	{5, 5, 5}, {17, 9, 33}, {64, 64, 64},
	{129, 131, 127}, {2, 511, 3}, {257, 2, 260},
	{1, 1024, 9}, {130, 516, 258}, {7, 3, 300},
}

// gemmTol bounds the acceptable packed-vs-naive divergence: both are
// exact algorithms that only differ in summation order, so the gap is
// pure float rounding, which grows with k.
func gemmTol(k int) float32 {
	return 1e-5 * float32(math.Sqrt(float64(k))+8)
}

func TestPackedGemmMatchesNaive(t *testing.T) {
	r := stats.NewRNG(42)
	for _, s := range gemmShapes {
		m, n, k := s[0], s[1], s[2]
		a := randTensor(r, m, k)
		b := randTensor(r, k, n)
		want := MatMulNaive(a, b)
		got := MatMul(a, b)
		if d := float32(MaxAbsDiff(got, want)); d > gemmTol(k) {
			t.Errorf("(%d,%d,%d): packed vs naive max abs diff %g", m, n, k, d)
		}
	}
}

func TestGemmTransBMatchesNaive(t *testing.T) {
	r := stats.NewRNG(43)
	for _, s := range gemmShapes {
		m, n, k := s[0], s[1], s[2]
		a := randTensor(r, m, k)
		bt := randTensor(r, n, k)
		got := MatMulTransB(a, bt)
		want := MatMulNaive(a, Transpose2D(bt))
		if d := float32(MaxAbsDiff(got, want)); d > gemmTol(k) {
			t.Errorf("(%d,%d,%d): transB vs naive max abs diff %g", m, n, k, d)
		}
	}
}

// TestGemmParallelBandsMatchNaive is the regression test for the old
// ceil-divide band split, which handed the last worker an empty (or
// out-of-range) band whenever m was smaller than the worker count. The
// split must be correct for every (m, w) combination, including w > m.
func TestGemmParallelBandsMatchNaive(t *testing.T) {
	r := stats.NewRNG(44)
	n, k := 37, 19
	for m := 1; m <= 9; m++ {
		a := randTensor(r, m, k)
		b := randTensor(r, k, n)
		want := MatMulNaive(a, b)
		for w := 1; w <= 8; w++ {
			c := New(m, n)
			g := gemm{c: c.Data, a: a.Data, b: b.Data, ldc: n, lda: k, ldb: n, m: m, n: n, k: k}
			g.parallel(new(worker), w)
			if d := float32(MaxAbsDiff(c, want)); d > gemmTol(k) {
				t.Fatalf("m=%d w=%d: parallel bands diverge from naive by %g", m, w, d)
			}
		}
	}
}

// stridedShapes adds products with more than one KC panel and more than
// one NC block to gemmShapes, so B's shared pack lays out several panels.
var stridedShapes = append([][3]int{{37, 800, 300}, {13, 1000, 520}, {6, 1600, 17}}, gemmShapes...)

// requireSameFloats fails unless got and want agree bit for bit.
func requireSameFloats(t *testing.T, what string, got, want []float32) {
	t.Helper()
	for i := range want {
		if g, w := math.Float32bits(got[i]), math.Float32bits(want[i]); g != w {
			t.Fatalf("%s: element %d is %v (%#08x), want %v (%#08x)", what, i, got[i], g, want[i], w)
		}
	}
}

// filled returns n copies of v.
func filled(n int, v float32) []float32 {
	out := make([]float32, n)
	for i := range out {
		out[i] = v
	}
	return out
}

// TestGemmReadsOperandsInPlace: A and B are read where they lie, at row
// strides wider than the product. The padding between rows holds NaN,
// so a read outside a row's k values would poison the result, and C's
// padding holds a sentinel that must survive. Transposed and row-major
// B, overwriting and accumulating.
func TestGemmReadsOperandsInPlace(t *testing.T) {
	r := stats.NewRNG(55)
	nan := float32(math.NaN())
	strided := func(src []float32, rows, cols, ld int, pad float32) []float32 {
		out := filled(rows*ld, pad)
		for i := 0; i < rows; i++ {
			copy(out[i*ld:i*ld+cols], src[i*cols:(i+1)*cols])
		}
		return out
	}
	for _, s := range stridedShapes {
		m, n, k := s[0], s[1], s[2]
		a, bt := randTensor(r, m, k), randTensor(r, n, k)
		want := MatMulNaive(a, Transpose2D(bt))
		const sentinel = 1234.5
		for _, transB := range []bool{true, false} {
			b, ldb := bt.Data, k+5
			if !transB {
				b, ldb = Transpose2D(bt).Data, n+7
			}
			rows, cols := k, n
			if transB {
				rows, cols = n, k
			}
			for _, zero := range []bool{true, false} {
				lda, ldc := k+3, n+2
				c := strided(filled(m*n, 0), m, n, ldc, sentinel)
				if !zero {
					c = strided(filled(m*n, 1), m, n, ldc, sentinel)
				}
				g := gemm{c: c, a: strided(a.Data, m, k, lda, nan), b: strided(b, rows, cols, ldb, nan),
					ldc: ldc, lda: lda, ldb: ldb, m: m, n: n, k: k, transB: transB, zero: zero}
				g.run()
				for i := 0; i < m; i++ {
					for j := 0; j < ldc; j++ {
						got := c[i*ldc+j]
						if j >= n {
							if got != sentinel {
								t.Fatalf("(%d,%d,%d) transB=%v: C padding (%d,%d) overwritten with %v", m, n, k, transB, i, j, got)
							}
							continue
						}
						w := want.Data[i*n+j]
						if !zero {
							w++
						}
						if d := got - w; !(d <= gemmTol(k) && d >= -gemmTol(k)) {
							t.Fatalf("(%d,%d,%d) transB=%v zero=%v: C(%d,%d) = %v, want %v", m, n, k, transB, zero, i, j, got, w)
						}
					}
				}
			}
		}
	}
}

// TestGemmBandsBitIdentical: B is packed once per product, each band
// packing a share of its strips, and every band reads all of it. The
// result must not depend on how many bands split the rows or the pack:
// the same bits for 1 to 5 bands, with and without an epilogue.
func TestGemmBandsBitIdentical(t *testing.T) {
	r := stats.NewRNG(56)
	for _, s := range stridedShapes {
		m, n, k := s[0], s[1], s[2]
		a, bt, bias := randTensor(r, m, k), randTensor(r, n, k), randTensor(r, n)
		var want []float32
		for w := 1; w <= 5; w++ {
			c := make([]float32, m*n)
			g := gemm{c: c, a: a.Data, b: bt.Data, ldc: n, lda: k, ldb: k, m: m, n: n, k: k,
				transB: true, zero: true, epi: Epilogue{Bias: bias.Data, GELU: true}}
			g.parallel(new(worker), w)
			if w == 1 {
				want = c
				continue
			}
			requireSameFloats(t, fmt.Sprintf("(%d,%d,%d) in %d bands", m, n, k, w), c, want)
		}
	}
}

// TestGemmShortOperandPanicsInCaller: a product whose operand is one
// value short of its shape panics with ErrShape on the caller's
// goroutine, before any band starts. Within the slice's capacity a band
// would read or write past its length unnoticed; past it, the band
// would panic on a helper goroutine, where no recover can reach, and
// take the process down.
func TestGemmShortOperandPanicsInCaller(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const m, n, k = 64, 48, 40
	r := stats.NewRNG(57)
	a, b, c, bias := randTensor(r, m, k).Data, randTensor(r, n, k).Data, make([]float32, m*n), randTensor(r, n).Data
	short := func(x []float32) []float32 { return x[: len(x)-1 : len(x)-1] }
	for _, tc := range []struct {
		name    string
		a, b, c []float32
		bias    []float32
	}{
		{"A", short(a), b, c, bias},
		{"B", a, short(b), c, bias},
		{"C", a, b, short(c), bias},
		{"bias", a, b, c, short(bias)},
	} {
		func() {
			defer func() {
				err, _ := recover().(error)
				if !errors.Is(err, ErrShape) {
					t.Errorf("short %s: recovered %v, want an ErrShape panic", tc.name, err)
				}
			}()
			GemmTransBEpilogue(tc.c, tc.a, tc.b, m, n, k, false, Epilogue{Bias: tc.bias})
		}()
	}
	half := make([]uint16, n*k-1)
	func() {
		defer func() {
			if err, _ := recover().(error); !errors.Is(err, ErrShape) {
				t.Errorf("short half B: recovered %v, want an ErrShape panic", err)
			}
		}()
		GemmTransBF16Into(c, a, half, m, n, k, false)
	}()
}

func TestGemmWorkersHeuristic(t *testing.T) {
	cases := []struct {
		m, n, k, procs, want int
	}{
		{1, 2048, 2048, 8, 1},    // one row: one band, however big the flops
		{3, 2048, 2048, 8, 3},    // m < procs: clamp to m, never an empty band
		{8, 8, 8, 8, 1},          // tiny product: stay serial
		{2048, 2048, 2048, 8, 8}, // big product: use all procs
		{2048, 4, 4, 8, 1},       // many rows but few MACs/row: stay near-serial
		{100, 256, 256, 64, 64},  // flops-limited below m
	}
	for _, c := range cases {
		if got := gemmWorkersFor(c.m, c.n, c.k, c.procs); got != c.want {
			t.Errorf("gemmWorkersFor(%d,%d,%d,procs=%d) = %d, want %d", c.m, c.n, c.k, c.procs, got, c.want)
		}
	}
	if got := gemmWorkersFor(100, 256, 256, 64); got*gemmMinMACsPerBand > 100*256*256 {
		t.Errorf("band smaller than the minimum MAC floor: w=%d", got)
	}
}

func TestGemmIntoZeroDims(t *testing.T) {
	// Degenerate dims must be no-ops, not panics or OOB writes.
	GemmInto(nil, nil, nil, 0, 4, 4)
	GemmTransBInto(nil, nil, nil, 4, 0, 4)
	GemmTransBF16Into(nil, nil, nil, 4, 4, 0, false)
}

func TestMatMulShapeErrorTyped(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected panic")
		}
		err, ok := r.(error)
		if !ok || !errors.Is(err, ErrShape) {
			t.Fatalf("panic value %v is not an ErrShape error", r)
		}
	}()
	MatMul(New(2, 3), New(4, 5))
}

func TestGemmF16MatchesRoundTripReference(t *testing.T) {
	r := stats.NewRNG(45)
	for _, s := range [][3]int{{3, 5, 7}, {17, 33, 9}, {64, 129, 260}, {1, 513, 300}} {
		m, n, k := s[0], s[1], s[2]
		a := randTensor(r, m, k)
		bt := randTensor(r, n, k)
		for _, bf16 := range []bool{false, true} {
			half := make([]uint16, n*k)
			ref := New(n, k)
			for i, v := range bt.Data {
				if bf16 {
					h := quant.BF16FromFloat32(v)
					half[i] = uint16(h)
					ref.Data[i] = h.Float32()
				} else {
					h := quant.FromFloat32(v)
					half[i] = uint16(h)
					ref.Data[i] = h.Float32()
				}
			}
			want := MatMulTransB(a, ref)
			got := New(m, n)
			GemmTransBF16Into(got.Data, a.Data, half, m, n, k, bf16)
			if d := float32(MaxAbsDiff(got, want)); d > gemmTol(k) {
				t.Errorf("bf16=%v (%d,%d,%d): f16 gemm vs round-trip reference diff %g", bf16, m, n, k, d)
			}
		}
	}
}

// q7Shapes is gemmShapes plus the int8 tiles' own edges: m%6, n%16 and
// k%4 all non-zero, the ViT head (n = 1000: 62 whole strips and a
// partial 63rd) and patch embedding (k = 12), and n = 16, 24, 32 and 48:
// one strip, a pair whose second strip is partial, one whole pair, and a
// pair plus an odd last strip.
var q7Shapes = append([][3]int{
	{1, 5, 3}, {4, 4, 4}, {3, 7, 9}, {17, 13, 31}, {2, 130, 515},
	{65, 3, 1024}, {31, 129, 127}, {13, 1000, 192}, {64, 192, 12}, {11, 17, 6},
	{7, 16, 40}, {9, 24, 33}, {12, 32, 64}, {5, 48, 101},
}, gemmShapes...)

// randQ7Codes returns m×k activation codes in [0,127] and n×k weight
// codes in [-63,63].
func randQ7Codes(r *stats.RNG, m, n, k int) ([]uint8, []int8) {
	acts := make([]uint8, m*k)
	for i := range acts {
		acts[i] = uint8(r.Float64() * 128)
	}
	ws := make([]int8, n*k)
	for i := range ws {
		ws[i] = int8(r.Float64()*127 - 63)
	}
	return acts, ws
}

// requireSameInts fails unless got equals want element for element.
func requireSameInts(t *testing.T, what string, got, want []int32) {
	t.Helper()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: element %d is %d, want %d", what, i, got[i], want[i])
		}
	}
}

// TestQ7GemmMatchesScalarRef bit-compares the dispatched int8 kernel —
// with the AMX block body where the host has it, and without — against
// the plain int32 scalar reference: both are exact integer algorithms,
// so they must agree exactly on every shape.
func TestQ7GemmMatchesScalarRef(t *testing.T) {
	r := stats.NewRNG(46)
	for _, s := range q7Shapes {
		m, n, k := s[0], s[1], s[2]
		acts, ws := randQ7Codes(r, m, n, k)
		want := make([]int32, m*n)
		Q7GemmTransBRef(want, acts, ws, m, n, k)
		pa, pw := PackQ7Acts(acts, m, k), PackQ7Weights(ws, n, k)
		withAndWithoutAMX(func(tiles string) {
			got := make([]int32, m*n)
			Q7GemmTransB(got, pa, pw)
			requireSameInts(t, fmt.Sprintf("%s (%d,%d,%d)", tiles, m, n, k), got, want)
		})
	}
}

// withAndWithoutAMX runs f as dispatched, then with the AMX block body
// off, naming each run.
func withAndWithoutAMX(f func(tiles string)) {
	f("dispatched tiles")
	WithoutAMX(func() { f("without AMX") })
}

// TestQ7PackReuse checks PackQ7ActsInto reuses backing storage, and
// that the stale codes left in its padding do not leak into a product.
func TestQ7PackReuse(t *testing.T) {
	var p PackedQ7
	PackQ7ActsInto(&p, bytes.Repeat([]uint8{127}, 10), 2, 5)
	d0 := &p.Data[0]
	a2 := []uint8{1, 2, 3, 4, 5, 6}
	PackQ7ActsInto(&p, a2, 2, 3)
	if &p.Data[0] != d0 {
		t.Error("PackQ7ActsInto reallocated despite sufficient capacity")
	}
	want := make([]int32, 4)
	Q7GemmTransBRef(want, a2, []int8{1, 1, 1, 2, 2, 2}, 2, 2, 3)
	got := make([]int32, 4)
	Q7GemmTransB(got, &p, PackQ7Weights([]int8{1, 1, 1, 2, 2, 2}, 2, 3))
	requireSameInts(t, "reused pack", got, want)
}

// q7LinearRef is the unfused int8 linear pipeline: per-row CalibrateQ7
// and QuantizeInto, the scalar integer product, dequantization
// sa·sw·(Σqa·qw − za·Σqw) in that operation order, then the epilogue.
func q7LinearRef(dst, x []float32, m, n, k int, w []int8, scales []float32, acc bool, epi Epilogue) {
	codes := make([]uint8, m*k)
	params := make([]quant.Q7Params, m)
	for i := range params {
		row := x[i*k : i*k+k]
		params[i], _ = quant.CalibrateQ7(row)
		params[i].QuantizeInto(codes[i*k:i*k+k], row)
	}
	rowSum := make([]int32, n)
	for j := range rowSum {
		for _, c := range w[j*k : j*k+k] {
			rowSum[j] += int32(c)
		}
	}
	raw := make([]int32, m*n)
	Q7GemmTransBRef(raw, codes, w, m, n, k)
	for i, p := range params {
		sa, za := p.Scale, float32(p.ZeroPoint)
		for j := 0; j < n; j++ {
			v := sa * scales[j] * (float32(raw[i*n+j]) - za*float32(rowSum[j]))
			if acc {
				v += dst[i*n+j]
			}
			dst[i*n+j] = v
		}
	}
	epi.Apply(dst, m, n)
}

// TestQ7LinearMatchesReference: the fused op — quantize, integer
// product, dequantize and epilogue inside the row bands — equals the
// unfused pipeline bit for bit, with and without accumulation, plain,
// with bias and with bias+GELU, with the AMX block body where the host
// has it and without.
func TestQ7LinearMatchesReference(t *testing.T) {
	r := stats.NewRNG(50)
	for _, s := range [][3]int{{1, 1, 1}, {7, 17, 12}, {2, 1000, 9}, {130, 516, 258}, {300, 33, 64}, {514, 192, 192}, {200, 96, 768}} {
		m, n, k := s[0], s[1], s[2]
		x, w := randTensor(r, m, k), randTensor(r, n, k)
		codes, scales := make([]int8, n*k), make([]float32, n)
		for j := range scales {
			row := w.Data[j*k : j*k+k]
			scales[j] = quant.CalibrateQ7Sym(row)
			quant.QuantizeQ7SymInto(codes[j*k:j*k+k], row, scales[j])
		}
		packed := PackQ7Weights(codes, n, k)
		bias, prior := randTensor(r, n).Data, randTensor(r, m, n).Data
		for _, acc := range []bool{false, true} {
			for _, epi := range []Epilogue{{}, {Bias: bias}, {Bias: bias, GELU: true}} {
				want := slices.Clone(prior)
				q7LinearRef(want, x.Data, m, n, k, codes, scales, acc, epi)
				withAndWithoutAMX(func(tiles string) {
					got := slices.Clone(prior)
					Q7LinearEpilogue(got, x.Data, m, k, packed, scales, acc, epi)
					for i := range want {
						if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
							t.Fatalf("%s (%d,%d,%d) acc=%v bias=%v gelu=%v: element %d is %v, want %v",
								tiles, m, n, k, acc, epi.Bias != nil, epi.GELU, i, got[i], want[i])
						}
					}
				})
			}
		}
	}
}

func TestIm2ColTransMatchesIm2Col(t *testing.T) {
	r := stats.NewRNG(47)
	x := randTensor(r, 2, 3, 9, 7)
	kh, kw, stride, pad := 3, 3, 2, 1
	oh := (9+2*pad-kh)/stride + 1
	ow := (7+2*pad-kw)/stride + 1
	ckk := 3 * kh * kw
	cols := New(ckk, oh*ow)
	colsT := make([]float32, oh*ow*ckk)
	for b := 0; b < 2; b++ {
		im2col(x, b, cols, kh, kw, stride, pad, oh, ow)
		Im2ColTransInto(colsT, x, b, kh, kw, stride, pad, oh, ow)
		for rr := 0; rr < ckk; rr++ {
			for cc := 0; cc < oh*ow; cc++ {
				if cols.Data[rr*oh*ow+cc] != colsT[cc*ckk+rr] {
					t.Fatalf("b=%d: transposed im2col mismatch at (%d,%d)", b, rr, cc)
				}
			}
		}
	}
}

func BenchmarkGemmPacked1024(b *testing.B) {
	r := stats.NewRNG(1)
	a := randTensor(r, 1024, 1024)
	bb := randTensor(r, 1024, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMul(a, bb)
	}
	b.ReportMetric(2*1024*1024*1024/float64(b.Elapsed().Nanoseconds())*float64(b.N), "GFLOPS")
}

func BenchmarkGemmF16_1024(b *testing.B) {
	r := stats.NewRNG(1)
	a := randTensor(r, 1024, 1024)
	half := make([]uint16, 1024*1024)
	for i := range half {
		half[i] = uint16(quant.FromFloat32(float32(r.Float64())))
	}
	c := New(1024, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		GemmTransBF16Into(c.Data, a.Data, half, 1024, 1024, 1024, false)
	}
	b.ReportMetric(2*1024*1024*1024/float64(b.Elapsed().Nanoseconds())*float64(b.N), "GFLOPS")
}

func BenchmarkQ7Gemm1024(b *testing.B) {
	acts, ws := randQ7Codes(stats.NewRNG(1), 1024, 1024, 1024)
	pa := PackQ7Acts(acts, 1024, 1024)
	pw := PackQ7Weights(ws, 1024, 1024)
	c := make([]int32, 1024*1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Q7GemmTransB(c, pa, pw)
	}
	b.ReportMetric(2*1024*1024*1024/float64(b.Elapsed().Nanoseconds())*float64(b.N), "eq-GFLOPS")
}

// FuzzQ7GemmMatchesRef: for any m, n and k — m off a multiple of 16, n
// off 32 and k off 64 among them — and any codes, the raw int8 product
// equals Q7GemmTransBRef, and the dequantized linear, overwriting or
// accumulating, equals the unfused q7LinearRef, both with ==; and each
// equals itself without the AMX block body. Sizes are capped so one
// input stays a few milliseconds.
func FuzzQ7GemmMatchesRef(f *testing.F) {
	for _, s := range []struct {
		m, n, k uint16
		acc     bool
	}{{1, 1, 1, false}, {33, 47, 70, true}, {48, 64, 256, false}, {17, 33, 65, true},
		{100, 96, 192, false}, {150, 40, 12, true}, {7, 160, 260, false}, {160, 32, 64, true}} {
		f.Add(s.m, s.n, s.k, s.acc, uint64(s.m)*31+uint64(s.k))
	}
	f.Fuzz(func(t *testing.T, m16, n16, k16 uint16, acc bool, seed uint64) {
		m, n, k := int(m16), int(n16), int(k16)
		if m == 0 || n == 0 || k == 0 || m > 200 || n > 160 || k > 400 {
			return
		}
		r := stats.NewRNG(seed)
		acts, ws := randQ7Codes(r, m, n, k)
		want := make([]int32, m*n)
		Q7GemmTransBRef(want, acts, ws, m, n, k)
		pa, pw := PackQ7Acts(acts, m, k), PackQ7Weights(ws, n, k)
		x, prior := randTensor(r, m, k).Data, randTensor(r, m, n).Data
		scales := make([]float32, n)
		for j := range scales {
			scales[j] = float32(r.Float64() * 0.05)
		}
		wantF := slices.Clone(prior)
		q7LinearRef(wantF, x, m, n, k, ws, scales, acc, Epilogue{})
		withAndWithoutAMX(func(tiles string) {
			got := make([]int32, m*n)
			Q7GemmTransB(got, pa, pw)
			requireSameInts(t, fmt.Sprintf("%s (%d,%d,%d)", tiles, m, n, k), got, want)
			gotF := slices.Clone(prior)
			Q7LinearEpilogue(gotF, x, m, k, pw, scales, acc, Epilogue{})
			requireSameFloats(t, fmt.Sprintf("%s linear (%d,%d,%d) accumulate=%v", tiles, m, n, k, acc), gotF, wantF)
		})
	})
}
