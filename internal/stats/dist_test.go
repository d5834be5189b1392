package stats

import (
	"math"
	"testing"
)

func sampleMean(d Distribution, n int, seed uint64) float64 {
	r := NewRNG(seed)
	s := 0.0
	for i := 0; i < n; i++ {
		s += d.Sample(r)
	}
	return s / float64(n)
}

func TestUniformMean(t *testing.T) {
	d := Uniform{Lo: 2, Hi: 6}
	if m := sampleMean(d, 50000, 1); math.Abs(m-d.Mean()) > 0.05 {
		t.Errorf("uniform sample mean %v, want ~%v", m, d.Mean())
	}
}

func TestNormalMean(t *testing.T) {
	d := Normal{Mu: -3, Sigma: 2}
	if m := sampleMean(d, 50000, 2); math.Abs(m-d.Mean()) > 0.05 {
		t.Errorf("normal sample mean %v, want ~%v", m, d.Mean())
	}
}

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

func TestLogNormalPositiveAndMean(t *testing.T) {
	d := LogNormal{Mu: 0, Sigma: 0.25}
	r := NewRNG(5)
	s := 0.0
	for i := 0; i < 50000; i++ {
		v := d.Sample(r)
		if v <= 0 {
			t.Fatalf("non-positive lognormal sample %v", v)
		}
		s += v
	}
	if m := s / 50000; math.Abs(m-d.Mean()) > 0.02 {
		t.Errorf("lognormal mean %v, want ~%v", m, d.Mean())
	}
}

func TestConstant(t *testing.T) {
	d := Constant{V: 256}
	r := NewRNG(6)
	for i := 0; i < 10; i++ {
		if d.Sample(r) != 256 {
			t.Fatal("constant distribution not constant")
		}
	}
	if d.Mean() != 256 {
		t.Fatal("constant mean wrong")
	}
}

func TestMixtureWeights(t *testing.T) {
	d := Mixture{Components: []Component{
		{Weight: 0.8, Dist: Constant{V: 0}},
		{Weight: 0.2, Dist: Constant{V: 1}},
	}}
	r := NewRNG(7)
	ones := 0
	const n = 50000
	for i := 0; i < n; i++ {
		if d.Sample(r) == 1 {
			ones++
		}
	}
	frac := float64(ones) / n
	if math.Abs(frac-0.2) > 0.01 {
		t.Errorf("mixture picked component 2 %.3f of the time, want ~0.2", frac)
	}
	if math.Abs(d.Mean()-0.2) > 1e-12 {
		t.Errorf("mixture mean %v, want 0.2", d.Mean())
	}
}

func TestExponentialMean(t *testing.T) {
	d := Exponential{Lambda: 4}
	if m := sampleMean(d, 50000, 8); math.Abs(m-0.25) > 0.01 {
		t.Errorf("exponential mean %v, want ~0.25", m)
	}
}

func TestValidateRejectsBadParams(t *testing.T) {
	bad := []Distribution{
		Uniform{Lo: 5, Hi: 5},
		Normal{Sigma: -1},
		TruncNormal{Lo: 2, Hi: 1, Sigma: 1},
		TruncNormal{Lo: 0, Hi: 1, Sigma: -1},
		LogNormal{Sigma: -0.1},
		Exponential{Lambda: 0},
		Mixture{},
		Mixture{Components: []Component{{Weight: -1, Dist: Constant{}}}},
		Mixture{Components: []Component{{Weight: 1, Dist: Uniform{Lo: 1, Hi: 0}}}},
	}
	for i, d := range bad {
		if err := Validate(d); err == nil {
			t.Errorf("case %d (%T): Validate accepted invalid params", i, d)
		}
	}
	good := []Distribution{
		Uniform{Lo: 0, Hi: 1},
		Normal{Mu: 1, Sigma: 2},
		TruncNormal{Mu: 0, Sigma: 1, Lo: -1, Hi: 1},
		LogNormal{Sigma: 1},
		Constant{V: 3},
		Exponential{Lambda: 2},
		Mixture{Components: []Component{{Weight: 1, Dist: Constant{V: 1}}}},
	}
	for i, d := range good {
		if err := Validate(d); err != nil {
			t.Errorf("case %d (%T): Validate rejected valid params: %v", i, d, err)
		}
	}
}
