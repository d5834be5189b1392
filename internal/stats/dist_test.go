package stats

import (
	"math"
	"testing"
)

func TestTruncNormalBounds(t *testing.T) {
	d := TruncNormal{Mu: 100, Sigma: 50, Lo: 40, Hi: 400}
	r := NewRNG(3)
	for i := 0; i < 20000; i++ {
		v := d.Sample(r)
		if v < d.Lo || v > d.Hi {
			t.Fatalf("truncated sample %v outside [%v,%v]", v, d.Lo, d.Hi)
		}
	}
}

func TestTruncNormalClampFallback(t *testing.T) {
	// Mean far outside the window forces the clamping fallback.
	d := TruncNormal{Mu: 1000, Sigma: 0.001, Lo: 0, Hi: 1}
	r := NewRNG(4)
	v := d.Sample(r)
	if v != 1 {
		t.Errorf("clamp fallback returned %v, want 1", v)
	}
}

func TestExponentialMean(t *testing.T) {
	d := Exponential{Lambda: 4}
	r := NewRNG(8)
	s := 0.0
	for i := 0; i < 50000; i++ {
		s += d.Sample(r)
	}
	if m := s / 50000; math.Abs(m-d.Mean()) > 0.01 {
		t.Errorf("exponential mean %v, want ~%v", m, d.Mean())
	}
}
