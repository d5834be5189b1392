package tensor

import (
	"testing"

	"harvest/internal/stats"
)

func TestNewAndIndexing(t *testing.T) {
	x := New(2, 3)
	if x.Len() != 6 || len(x.Shape) != 2 || x.Dim(0) != 2 || x.Dim(1) != 3 {
		t.Fatalf("bad tensor metadata: %+v", x)
	}
	x.Set(7, 1, 2)
	if got := x.At(1, 2); got != 7 {
		t.Errorf("At(1,2) = %v, want 7", got)
	}
	if got := x.At(0, 0); got != 0 {
		t.Errorf("fresh tensor not zeroed: %v", got)
	}
}

func TestNewPanicsOnBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New with zero dim did not panic")
		}
	}()
	New(2, 0)
}

func TestIndexPanics(t *testing.T) {
	x := New(2, 2)
	cases := []func(){
		func() { x.At(2, 0) },
		func() { x.At(0, -1) },
		func() { x.At(0) },
		func() { x.Set(1, 0, 0, 0) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: no panic", i)
				}
			}()
			f()
		}()
	}
}

func TestFromSlice(t *testing.T) {
	data := []float32{1, 2, 3, 4, 5, 6}
	x := FromSlice(data, 2, 3)
	if x.At(1, 0) != 4 {
		t.Errorf("FromSlice layout wrong: %v", x.Data)
	}
	defer func() {
		if recover() == nil {
			t.Error("FromSlice size mismatch did not panic")
		}
	}()
	FromSlice(data, 2, 2)
}

func TestCloneIndependence(t *testing.T) {
	x := New(2, 2)
	x.Fill(1)
	y := x.Clone()
	y.Set(9, 0, 0)
	if x.At(0, 0) != 1 {
		t.Error("Clone shares storage")
	}
}

func TestReshape(t *testing.T) {
	x := New(2, 6)
	x.Set(5, 1, 1)
	y := x.Reshape(3, 4)
	if y.At(1, 3) != 5 { // flat index 7 = row1,col1 of 2x6
		t.Errorf("reshape view broken: %v", y.Data)
	}
	// Views share storage.
	y.Set(8, 0, 0)
	if x.At(0, 0) != 8 {
		t.Error("Reshape copied storage")
	}
	defer func() {
		if recover() == nil {
			t.Error("size-changing reshape did not panic")
		}
	}()
	x.Reshape(5, 5)
}

func TestRandInitRange(t *testing.T) {
	x := New(100)
	x.RandInit(stats.NewRNG(1), 0.5)
	nonzero := 0
	for _, v := range x.Data {
		if v < -0.5 || v > 0.5 {
			t.Fatalf("RandInit out of range: %v", v)
		}
		if v != 0 {
			nonzero++
		}
	}
	if nonzero < 90 {
		t.Errorf("RandInit produced %d/100 nonzero values", nonzero)
	}
}

func TestMaxAbsDiff(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3}, 3)
	b := FromSlice([]float32{1, 2.5, 2}, 3)
	if d := MaxAbsDiff(a, b); d != 1 {
		t.Errorf("MaxAbsDiff %v, want 1", d)
	}
}

func TestArgMax(t *testing.T) {
	if i := ArgMax([]float32{-1, 5, 3}); i != 1 {
		t.Errorf("ArgMax = %d, want 1", i)
	}
	if i := ArgMax([]float32{2}); i != 0 {
		t.Errorf("ArgMax single = %d, want 0", i)
	}
}
