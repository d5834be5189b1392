package tensor

import (
	"errors"
	"math"
	"slices"
	"testing"

	"harvest/internal/stats"
)

func TestAddInPlace(t *testing.T) {
	a := FromSlice([]float32{1, 2}, 2)
	b := FromSlice([]float32{10, 20}, 2)
	AddInPlace(a, b)
	if a.Data[0] != 11 || a.Data[1] != 22 {
		t.Errorf("AddInPlace = %v", a.Data)
	}
	defer func() {
		if recover() == nil {
			t.Error("size mismatch did not panic")
		}
	}()
	AddInPlace(a, New(3))
}

func TestReLU(t *testing.T) {
	a := FromSlice([]float32{-1, 0, 2}, 3)
	ReLU(a)
	if a.Data[0] != 0 || a.Data[1] != 0 || a.Data[2] != 2 {
		t.Errorf("ReLU = %v", a.Data)
	}
}

func TestGELUKnownValues(t *testing.T) {
	a := FromSlice([]float32{0, 1, -1, 10, -10}, 5)
	GELU(a)
	// GELU(0)=0, GELU(1)~0.8412, GELU(-1)~-0.1588, GELU(10)~10,
	// GELU(-10)~0.
	checks := []struct {
		i    int
		want float64
		tol  float64
	}{
		{0, 0, 1e-6}, {1, 0.8412, 1e-3}, {2, -0.1588, 1e-3}, {3, 10, 1e-3}, {4, 0, 1e-3},
	}
	for _, c := range checks {
		if math.Abs(float64(a.Data[c.i])-c.want) > c.tol {
			t.Errorf("GELU[%d] = %v, want ~%v", c.i, a.Data[c.i], c.want)
		}
	}
}

// TestExp32Accuracy pins exp32's error against math.Exp over a dense
// grid of [-87, 88], in units of the float32 spacing at the true value:
// 1.33 ulp measured, 2 asserted (the issue's ceiling is 4).
func TestExp32Accuracy(t *testing.T) {
	for x := -87.0; x <= 88; x += 1.0 / 1024 {
		got, want := exp32(float32(x)), math.Exp(float64(float32(x)))
		w := float32(want)
		ulp := float64(math.Float32frombits(math.Float32bits(w)+1) - w)
		if e := math.Abs(float64(got)-want) / ulp; e > 2 {
			t.Fatalf("exp(%v) = %v, want %v: %.2f ulp", x, got, want, e)
		}
	}
}

// TestGELUAccuracy pins the float32 GELU against the float64 tanh
// formula on [-10, 10]: 1.2e-7·max(1, |x|) measured, 1e-6 asserted (the
// issue's ceiling is 1e-5).
func TestGELUAccuracy(t *testing.T) {
	var xs []float32
	for x := -10.0; x <= 10; x += 1.0 / 4096 {
		xs = append(xs, float32(x))
	}
	got := FromSlice(append([]float32(nil), xs...), len(xs))
	GELU(got)
	for i, x := range xs {
		u := float64(x)
		want := 0.5 * u * (1 + math.Tanh(0.7978845608028654*(u+0.044715*u*u*u)))
		if e := math.Abs(float64(got.Data[i])-want) / math.Max(1, math.Abs(u)); e > 1e-6 {
			t.Fatalf("GELU(%v) = %v, want %v (error %.2g)", x, got.Data[i], want, e)
		}
	}
}

// TestSoftmaxRowsSumToOne: rows of every width and spread sum to 1
// within 1e-6, the float64 row sum's job.
func TestSoftmaxRowsSumToOne(t *testing.T) {
	r := stats.NewRNG(10)
	for _, n := range []int{1, 3, 64, 257, 1000} {
		for _, spread := range []float64{0.1, 10, 1000} {
			x := New(4, n)
			x.RandInit(r, spread)
			SoftmaxRows(x)
			for i := 0; i < 4; i++ {
				var sum float64
				for _, v := range x.Data[i*n : (i+1)*n] {
					sum += float64(v)
				}
				if math.Abs(sum-1) > 1e-6 {
					t.Errorf("n=%d spread=%v row %d sums to %.9f", n, spread, i, sum)
				}
			}
		}
	}
}

func TestSoftmaxRows(t *testing.T) {
	x := FromSlice([]float32{1, 2, 3, 1000, 1000, 1000}, 2, 3)
	SoftmaxRows(x)
	for r := 0; r < 2; r++ {
		var sum float64
		for c := 0; c < 3; c++ {
			v := float64(x.At(r, c))
			if v < 0 || v > 1 || math.IsNaN(v) {
				t.Fatalf("softmax value out of range: %v", v)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-5 {
			t.Errorf("row %d softmax sums to %v", r, sum)
		}
	}
	// Monotonic: larger logits get larger probability.
	if !(x.At(0, 2) > x.At(0, 1) && x.At(0, 1) > x.At(0, 0)) {
		t.Error("softmax not monotone in logits")
	}
	// Huge equal logits must not produce NaN (stability check) and be
	// uniform.
	if math.Abs(float64(x.At(1, 0))-1.0/3) > 1e-5 {
		t.Errorf("stable softmax of equal logits = %v", x.At(1, 0))
	}
}

func TestLayerNorm(t *testing.T) {
	x := FromSlice([]float32{1, 2, 3, 4}, 1, 4)
	gamma := New(4)
	gamma.Fill(1)
	beta := New(4)
	LayerNorm(x, gamma, beta, 1e-6)
	var mean, variance float64
	for _, v := range x.Data {
		mean += float64(v)
	}
	mean /= 4
	for _, v := range x.Data {
		variance += (float64(v) - mean) * (float64(v) - mean)
	}
	variance /= 4
	if math.Abs(mean) > 1e-5 {
		t.Errorf("layernorm mean %v, want 0", mean)
	}
	if math.Abs(variance-1) > 1e-3 {
		t.Errorf("layernorm variance %v, want 1", variance)
	}
}

func TestLayerNormAffine(t *testing.T) {
	x := FromSlice([]float32{-1, 1}, 1, 2)
	gamma := FromSlice([]float32{2, 2}, 2)
	beta := FromSlice([]float32{5, 5}, 2)
	LayerNorm(x, gamma, beta, 1e-6)
	// normalized = [-1, 1]; affine -> [3, 7]
	if math.Abs(float64(x.Data[0])-3) > 1e-3 || math.Abs(float64(x.Data[1])-7) > 1e-3 {
		t.Errorf("affine layernorm = %v, want [3 7]", x.Data)
	}
}

func TestBatchNormInference(t *testing.T) {
	// One image, two channels, 2x2.
	x := New(1, 2, 2, 2)
	for i := range x.Data {
		x.Data[i] = float32(i)
	}
	mean := []float32{0, 0}
	variance := []float32{1, 1}
	gamma := []float32{1, 2}
	beta := []float32{0, 1}
	orig := x.Clone()
	BatchNormInference(x, mean, variance, gamma, beta, 0)
	// Channel 0 unchanged, channel 1 scaled by 2 plus 1.
	for i := 0; i < 4; i++ {
		if x.Data[i] != orig.Data[i] {
			t.Errorf("channel 0 changed at %d", i)
		}
	}
	for i := 4; i < 8; i++ {
		want := orig.Data[i]*2 + 1
		if x.Data[i] != want {
			t.Errorf("channel 1 at %d = %v, want %v", i, x.Data[i], want)
		}
	}
}

func TestTranspose2D(t *testing.T) {
	x := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	y := Transpose2D(x)
	if y.Shape[0] != 3 || y.Shape[1] != 2 {
		t.Fatalf("transpose shape %v", y.Shape)
	}
	if y.At(2, 1) != 6 || y.At(0, 1) != 4 {
		t.Errorf("transpose values wrong: %v", y.Data)
	}
}

func TestAttentionUniform(t *testing.T) {
	// With identical keys, attention weights are uniform, so the output
	// is the mean of the values.
	seq, dim := 3, 4
	q := New(seq, dim)
	k := New(seq, dim) // zeros -> all scores equal
	v := New(seq, dim)
	for i := 0; i < seq; i++ {
		for j := 0; j < dim; j++ {
			v.Set(float32(i), i, j)
		}
	}
	out := Attention(q, k, v)
	for i := 0; i < seq; i++ {
		for j := 0; j < dim; j++ {
			if math.Abs(float64(out.At(i, j))-1) > 1e-5 { // mean of 0,1,2
				t.Fatalf("uniform attention out[%d][%d] = %v, want 1", i, j, out.At(i, j))
			}
		}
	}
}

func TestAttentionSelectsMatchingValue(t *testing.T) {
	// A query strongly aligned with one key should return (nearly) that
	// key's value.
	seq, dim := 2, 4
	q := New(seq, dim)
	k := New(seq, dim)
	v := New(seq, dim)
	q.Set(50, 0, 0)
	k.Set(1, 0, 0) // key 0 aligned with query 0
	v.Set(7, 0, 0)
	v.Set(-7, 1, 0)
	out := Attention(q, k, v)
	if out.At(0, 0) < 6.5 {
		t.Errorf("attention did not select matching value: %v", out.At(0, 0))
	}
}

func TestOpsPanicOnWrongRank(t *testing.T) {
	three := New(2, 2, 2)
	g := New(2)
	for i, f := range []func(){
		func() { SoftmaxRows(three) },
		func() { LayerNorm(three, g, g, 1e-6) },
		func() { BatchNormInference(New(2, 2), nil, nil, nil, nil, 0) },
		func() { Transpose2D(three) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: no panic on wrong rank", i)
				}
			}()
			f()
		}()
	}
}

// TestNormPanicsOnBadOperands: LayerNormRows and the epilogue's Norm
// step panic with ErrShape, on the caller's goroutine and before any
// row is written, when src or dst holds fewer than m·n values, γ or β
// fewer than n, or dst overlaps its source (without being it) or the
// product's A. The GEMM has 514 rows, so its bands run on helper
// goroutines, where a panic could not be recovered.
func TestNormPanicsOnBadOperands(t *testing.T) {
	const m, n, k = 514, 48, 40
	r := stats.NewRNG(61)
	x, g, b := randTensor(r, m, n).Data, randTensor(r, n).Data, randTensor(r, n).Data
	a, w, c := randTensor(r, m, k).Data, randTensor(r, n, k).Data, make([]float32, m*n)
	dst := make([]float32, m*n)
	short := func(v []float32) []float32 { return v[: len(v)-1 : len(v)-1] }
	gemmNorm := func(nm Norm) func() {
		return func() { GemmTransBEpilogue(c, a, w, m, n, k, false, Epilogue{Norm: nm}) }
	}
	for name, f := range map[string]func(){
		"short src":            func() { LayerNormRows(dst, short(x), m, n, g, b, 1e-6) },
		"short dst":            func() { LayerNormRows(short(dst), x, m, n, g, b, 1e-6) },
		"short γ":              func() { LayerNormRows(dst, x, m, n, short(g), b, 1e-6) },
		"short β":              func() { LayerNormRows(dst, x, m, n, g, short(b), 1e-6) },
		"dst one row into src": func() { LayerNormRows(x[n:], x, m-1, n, g, b, 1e-6) },
		"epilogue short Dst":   gemmNorm(Norm{Dst: short(dst), Gamma: g, Beta: b}),
		"epilogue short γ":     gemmNorm(Norm{Dst: dst, Gamma: short(g), Beta: b}),
		"epilogue short β":     gemmNorm(Norm{Dst: dst, Gamma: g, Beta: short(b)}),
		"epilogue Dst in A": func() {
			shared := slices.Clone(x)
			GemmTransBEpilogue(c, shared[:m*k], w, m, n, k, false, Epilogue{Norm: Norm{Dst: shared, Gamma: g, Beta: b}})
		},
		"epilogue Dst in C": gemmNorm(Norm{Dst: c[1:], Gamma: g, Beta: b}),
		"Apply short γ":     func() { Epilogue{Norm: Norm{Dst: dst, Gamma: short(g), Beta: b}}.Apply(c, m, n) },
	} {
		before := append([]float32(nil), dst...)
		func() {
			defer func() {
				if err, _ := recover().(error); !errors.Is(err, ErrShape) {
					t.Errorf("%s: recovered %v, want an ErrShape panic", name, err)
				}
			}()
			f()
		}()
		for i := range before {
			if math.Float32bits(dst[i]) != math.Float32bits(before[i]) {
				t.Fatalf("%s: dst[%d] written before the panic", name, i)
			}
		}
	}
	// In place, into the product itself, is allowed.
	LayerNormRows(x, x, m, n, g, b, 1e-6)
	gemmNorm(Norm{Dst: c, Gamma: g, Beta: b})()
}

func TestSoftmaxRandomizedStability(t *testing.T) {
	r := stats.NewRNG(9)
	x := New(16, 32)
	x.RandInit(r, 100)
	SoftmaxRows(x)
	for _, v := range x.Data {
		if math.IsNaN(float64(v)) || v < 0 || v > 1 {
			t.Fatalf("softmax produced %v", v)
		}
	}
}
