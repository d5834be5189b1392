package tensor

import (
	"testing"
	"testing/quick"

	"harvest/internal/stats"
)

func randTensor(r *stats.RNG, shape ...int) *Tensor {
	x := New(shape...)
	x.RandInit(r, 1)
	return x
}

// matMulTransB is C = A(m×k)·Bᵀ for b (n×k) row-major, the reference
// product of a linear layer whose weights are stored (out × in).
func matMulTransB(a, b *Tensor) *Tensor {
	c := New(a.Shape[0], b.Shape[0])
	GemmTransBInto(c.Data, a.Data, b.Data, a.Shape[0], b.Shape[0], a.Shape[1])
	return c
}

func TestMatMulMatchesNaive(t *testing.T) {
	r := stats.NewRNG(1)
	for _, dims := range [][3]int{{1, 1, 1}, {2, 3, 4}, {7, 5, 9}, {16, 16, 16}, {33, 65, 17}, {128, 64, 96}} {
		m, k, n := dims[0], dims[1], dims[2]
		a := randTensor(r, m, k)
		b := randTensor(r, k, n)
		want := MatMulNaive(a, b)
		got := MatMul(a, b)
		if d := MaxAbsDiff(want, got); d > 1e-3 {
			t.Errorf("MatMul(%dx%dx%d) deviates from naive by %v", m, k, n, d)
		}
	}
}

func TestMatMulTransBMatchesNaive(t *testing.T) {
	r := stats.NewRNG(2)
	for _, dims := range [][3]int{{3, 4, 5}, {17, 33, 9}, {64, 48, 64}} {
		m, k, n := dims[0], dims[1], dims[2]
		a := randTensor(r, m, k)
		bt := randTensor(r, n, k)
		b := Transpose2D(bt)
		want := MatMulNaive(a, b)
		got := matMulTransB(a, bt)
		if d := MaxAbsDiff(want, got); d > 1e-3 {
			t.Errorf("matMulTransB(%dx%dx%d) deviates by %v", m, k, n, d)
		}
	}
}

func TestMatMulIdentity(t *testing.T) {
	r := stats.NewRNG(3)
	a := randTensor(r, 8, 8)
	id := New(8, 8)
	for i := 0; i < 8; i++ {
		id.Set(1, i, i)
	}
	if d := MaxAbsDiff(MatMul(a, id), a); d > 1e-6 {
		t.Errorf("A*I differs from A by %v", d)
	}
	if d := MaxAbsDiff(MatMul(id, a), a); d > 1e-6 {
		t.Errorf("I*A differs from A by %v", d)
	}
}

func TestMatMulDimensionMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched MatMul did not panic")
		}
	}()
	MatMul(New(2, 3), New(4, 2))
}

func TestMatMulDistributivity(t *testing.T) {
	// Property: A*(B+C) == A*B + A*C within float tolerance.
	r := stats.NewRNG(4)
	f := func(seed uint16) bool {
		rr := stats.NewRNG(uint64(seed))
		m, k, n := 2+rr.Intn(10), 2+rr.Intn(10), 2+rr.Intn(10)
		a := randTensor(r, m, k)
		b := randTensor(r, k, n)
		c := randTensor(r, k, n)
		bc := b.Clone()
		AddInPlace(bc, c)
		left := MatMul(a, bc)
		right := MatMul(a, b)
		AddInPlace(right, MatMul(a, c))
		return MaxAbsDiff(left, right) < 1e-3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestGemmIntoAccumulates(t *testing.T) {
	a := []float32{1, 0, 0, 1} // 2x2 identity
	b := []float32{5, 6, 7, 8}
	c := []float32{1, 1, 1, 1}
	GemmInto(c, a, b, 2, 2, 2)
	want := []float32{6, 7, 8, 9}
	for i := range want {
		if c[i] != want[i] {
			t.Fatalf("GemmInto accumulate wrong: %v, want %v", c, want)
		}
	}
}

func BenchmarkMatMul256(b *testing.B) {
	r := stats.NewRNG(1)
	x := randTensor(r, 256, 256)
	y := randTensor(r, 256, 256)
	b.SetBytes(int64(2 * 256 * 256 * 256 * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMul(x, y)
	}
}
