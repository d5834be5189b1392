package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestHistogramMassConservation(t *testing.T) {
	// Out-of-range points clamp to the boundary cells, so every
	// observation lands in some cell.
	h := NewHist2D(0, 10, 5, 0, 10, 5)
	pts := [][2]float64{{-1, 5}, {0, 0}, {2.5, 9.999}, {10, 10}, {42, -3}, {5, 42}}
	for _, p := range pts {
		h.Add(p[0], p[1])
	}
	inCells := 0
	for _, c := range h.Counts {
		inCells += c
	}
	if inCells != len(pts) {
		t.Fatalf("mass not conserved: %d in cells of %d", inCells, len(pts))
	}
	// (-1,5) -> (0,2); (10,10) -> (4,4); (42,-3) -> (4,0); (5,42) -> (2,4).
	for _, cell := range []int{2*5 + 0, 4*5 + 4, 0*5 + 4, 4*5 + 2} {
		if h.Counts[cell] != 1 {
			t.Errorf("boundary cell %d holds %d, want 1", cell, h.Counts[cell])
		}
	}
}

func TestHistogramMode(t *testing.T) {
	// The mode is the centre of the fullest cell, exactly, with
	// different bin widths on the two axes.
	h := NewHist2D(0, 100, 10, 0, 50, 5)
	for i := 0; i < 50; i++ {
		h.Add(35, 12) // cell (3, 1), centre (35, 15)
	}
	h.Add(5, 5)
	if x, y := h.Mode(); x != 35 || y != 15 {
		t.Errorf("mode (%v, %v), want (35, 15)", x, y)
	}
}

func TestHistogramPanicsOnBadParams(t *testing.T) {
	for _, f := range []func(){
		func() { NewHist2D(0, 0, 4, 0, 1, 4) },
		func() { NewHist2D(0, 1, 0, 0, 1, 4) },
		func() { NewHist2D(0, 1, 4, 1, 1, 4) },
		func() { NewHist2D(0, 1, 4, 0, 1, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic on invalid histogram params")
				}
			}()
			f()
		}()
	}
}

func TestHist2DModeAndClamping(t *testing.T) {
	h := NewHist2D(0, 400, 40, 0, 400, 40)
	for i := 0; i < 100; i++ {
		h.Add(233, 233)
	}
	h.Add(-5, 1000) // clamped, not lost
	mx, my := h.Mode()
	if math.Abs(mx-235) > 10 || math.Abs(my-235) > 10 {
		t.Errorf("2d mode (%v,%v), want near (233,233)", mx, my)
	}
	inCells := 0
	for _, c := range h.Counts {
		inCells += c
	}
	if inCells != 101 {
		t.Errorf("%d observations in cells, want 101", inCells)
	}
}

func TestKDE1DIntegratesToOne(t *testing.T) {
	r := NewRNG(2)
	samples := make([]float64, 500)
	for i := range samples {
		samples[i] = r.NormFloat64()
	}
	// Integrate the KDE over a wide grid.
	const lo, hi, n = -8.0, 8.0, 400
	points := make([]float64, n)
	for i := range points {
		points[i] = lo + (hi-lo)*float64(i)/float64(n-1)
	}
	dens := KDE1D(samples, points, 0)
	integral := 0.0
	for i := 1; i < n; i++ {
		integral += (dens[i] + dens[i-1]) / 2 * (points[i] - points[i-1])
	}
	if math.Abs(integral-1) > 0.01 {
		t.Errorf("KDE integral %v, want ~1", integral)
	}
}

func TestKDE1DEmptyAndPeak(t *testing.T) {
	if out := KDE1D(nil, []float64{0, 1}, 1); out[0] != 0 || out[1] != 0 {
		t.Error("KDE of empty sample should be zero")
	}
	// A spike of identical samples peaks at the spike.
	samples := []float64{5, 5, 5, 5}
	d := KDE1D(samples, []float64{0, 5, 10}, 1)
	if !(d[1] > d[0] && d[1] > d[2]) {
		t.Errorf("KDE not peaked at sample location: %v", d)
	}
}

func TestSilvermanBandwidth(t *testing.T) {
	if b := SilvermanBandwidth([]float64{1}); b != 1 {
		t.Errorf("degenerate bandwidth %v, want 1", b)
	}
	if b := SilvermanBandwidth([]float64{3, 3, 3}); b != 1 {
		t.Errorf("zero-variance bandwidth %v, want 1", b)
	}
	xs := make([]float64, 100)
	r := NewRNG(3)
	for i := range xs {
		xs[i] = r.NormFloat64()
	}
	b := SilvermanBandwidth(xs)
	if b <= 0 || b > 2 {
		t.Errorf("suspicious bandwidth %v for standard normal n=100", b)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	cases := []struct{ p, want float64 }{
		{0, 1}, {100, 5}, {50, 3}, {25, 2}, {75, 4},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); got != c.want {
			t.Errorf("P%v = %v, want %v", c.p, got, c.want)
		}
	}
	// Input must not be reordered.
	if xs[0] != 4 {
		t.Error("Percentile mutated its input")
	}
	if got := Percentile(nil, 50); got != 0 {
		t.Errorf("empty percentile %v, want 0", got)
	}
}

func TestPercentileInterpolation(t *testing.T) {
	xs := []float64{0, 10}
	if got := Percentile(xs, 50); got != 5 {
		t.Errorf("interpolated P50 = %v, want 5", got)
	}
	if got := Percentile(xs, 75); got != 7.5 {
		t.Errorf("interpolated P75 = %v, want 7.5", got)
	}
}

func TestPercentileQuickWithinBounds(t *testing.T) {
	f := func(raw []float64, p8 uint8) bool {
		xs := raw[:0]
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		p := float64(p8) / 255 * 100
		v := Percentile(xs, p)
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		return v >= sorted[0] && v <= sorted[len(sorted)-1]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestMeanStdDev(t *testing.T) {
	if Mean(nil) != 0 || StdDev(nil) != 0 || StdDev([]float64{1}) != 0 {
		t.Error("degenerate mean/std wrong")
	}
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); m != 5 {
		t.Errorf("mean %v, want 5", m)
	}
	if sd := StdDev(xs); math.Abs(sd-2) > 1e-12 {
		t.Errorf("std %v, want 2", sd)
	}
}
