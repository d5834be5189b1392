package workload

import (
	"math"
	"strings"
	"testing"

	"harvest/internal/stats"
)

func TestPoissonTraceRateAndOrdering(t *testing.T) {
	var trace []Arrival
	NewArrivalStream(stats.NewRNG(1), ConstantRate(100), 100, 50, 2).Each(func(a Arrival) bool {
		trace = append(trace, a)
		return true
	})
	// ~100 req/s * 50 s = ~5000 arrivals.
	if n := len(trace); n < 4500 || n > 5500 {
		t.Errorf("trace length %d, want ~5000", n)
	}
	prev := -1.0
	for i, a := range trace {
		if a.Time <= prev {
			t.Fatalf("arrival %d not strictly increasing", i)
		}
		if a.Time < 0 || a.Time >= 50 {
			t.Fatalf("arrival %d time %v outside horizon", i, a.Time)
		}
		if a.Items != 2 {
			t.Fatalf("arrival %d items %d", i, a.Items)
		}
		prev = a.Time
	}
}

func TestPoissonTraceDegenerate(t *testing.T) {
	rng := stats.NewRNG(2)
	if NewArrivalStream(rng, ConstantRate(0), 0, 10, 1) != nil {
		t.Error("zero rate should yield nil")
	}
	if NewArrivalStream(rng, ConstantRate(10), 10, 0, 1) != nil {
		t.Error("zero horizon should yield nil")
	}
	if NewArrivalStream(rng, ConstantRate(10), 10, 10, 0) != nil {
		t.Error("zero items should yield nil")
	}
}

func TestFrameTrace(t *testing.T) {
	trace := FrameTrace(30, 90)
	if len(trace) != 90 {
		t.Fatalf("frames %d", len(trace))
	}
	if trace[0].Time != 0 {
		t.Error("first frame not at 0")
	}
	if math.Abs(trace[30].Time-1) > 1e-9 {
		t.Errorf("frame 30 at %v, want 1s", trace[30].Time)
	}
	if FrameTrace(0, 5) != nil || FrameTrace(30, 0) != nil {
		t.Error("degenerate frame traces should be nil")
	}
}

func TestSLOTracker(t *testing.T) {
	slo := NewSLOTracker(0.0167)
	slo.Observe(0.010)
	slo.Observe(0.016)
	slo.Observe(0.020)
	slo.Observe(0.050)
	if s := slo.String(); !strings.Contains(s, "met=2 missed=2") {
		t.Errorf("tracker %q, want met=2 missed=2", s)
	}
	if r := slo.MissRate(); math.Abs(r-0.5) > 1e-12 {
		t.Errorf("miss rate %v", r)
	}
	if w := slo.WorstSeconds(); w != 0.050 {
		t.Errorf("worst %v", w)
	}
}

func TestSLOTrackerEmpty(t *testing.T) {
	slo := NewSLOTracker(0.1)
	if slo.MissRate() != 0 {
		t.Error("empty tracker miss rate nonzero")
	}
}

// legacyPoissonTrace is the pre-stream slice generator, kept verbatim
// so the stream is pinned to produce bit-identical constant-rate
// schedules from the same seed.
func legacyPoissonTrace(rng *stats.RNG, ratePerSec, horizonSec float64, itemsPerReq int) []Arrival {
	if ratePerSec <= 0 || horizonSec <= 0 || itemsPerReq <= 0 {
		return nil
	}
	var out []Arrival
	t := 0.0
	exp := stats.Exponential{Lambda: ratePerSec}
	for {
		t += exp.Sample(rng)
		if t >= horizonSec {
			return out
		}
		out = append(out, Arrival{Time: t, Items: itemsPerReq})
	}
}

func TestPoissonTraceMatchesLegacyGenerator(t *testing.T) {
	want := legacyPoissonTrace(stats.NewRNG(7), 80, 20, 3)
	var got []Arrival
	NewArrivalStream(stats.NewRNG(7), ConstantRate(80), 80, 20, 3).Each(func(a Arrival) bool {
		got = append(got, a)
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("stream has %d arrivals, legacy %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("arrival %d: %+v != legacy %+v", i, got[i], want[i])
		}
	}
}

func TestArrivalStreamDeterminism(t *testing.T) {
	build := func() []Arrival {
		s := NewArrivalStream(stats.NewRNG(42), DiurnalRate(50, 30, 10), 80, 30, 2)
		var out []Arrival
		s.Each(func(a Arrival) bool { out = append(out, a); return true })
		return out
	}
	a, c := build(), build()
	if len(a) == 0 || len(a) != len(c) {
		t.Fatalf("schedules differ in length: %d vs %d", len(a), len(c))
	}
	for i := range a {
		if a[i] != c[i] {
			t.Fatalf("arrival %d differs: %+v vs %+v", i, a[i], c[i])
		}
	}
}

func TestArrivalStreamConstantMemoryAndOrdering(t *testing.T) {
	s := NewArrivalStream(stats.NewRNG(9), ConstantRate(200), 200, 100, 1)
	n, last := 0, -1.0
	for {
		a, ok := s.Next()
		if !ok {
			break
		}
		if a.Time <= last || a.Time >= 100 {
			t.Fatalf("arrival %d at %v out of order or past horizon (prev %v)", n, a.Time, last)
		}
		last = a.Time
		n++
	}
	if n < 18000 || n > 22000 {
		t.Errorf("%d arrivals, want ~20000", n)
	}
	// Exhausted stream stays exhausted.
	if _, ok := s.Next(); ok {
		t.Error("stream yielded after horizon")
	}
}

func TestRateShapes(t *testing.T) {
	if r := ConstantRate(5)(123); r != 5 {
		t.Errorf("constant rate %v", r)
	}
	d := DiurnalRate(10, 20, 100) // swings negative: must clamp at 0
	if r := d(75); r != 0 {
		t.Errorf("diurnal trough %v, want 0 (clamped)", r)
	}
	if r := d(25); math.Abs(r-30) > 1e-9 {
		t.Errorf("diurnal peak %v, want 30", r)
	}
	b := BurstRate(10, 100, 5, 1)
	if b(0.5) != 100 || b(3) != 10 || b(5.5) != 100 {
		t.Errorf("burst shape: %v %v %v", b(0.5), b(3), b(5.5))
	}
	rmp := RampRate(0, 100, 10)
	if rmp(0) != 0 || math.Abs(rmp(5)-50) > 1e-9 || rmp(12) != 100 {
		t.Errorf("ramp shape: %v %v %v", rmp(0), rmp(5), rmp(12))
	}
}

func TestArrivalStreamThinningMatchesShape(t *testing.T) {
	// A burst shape at 5x the base: arrivals inside burst windows should
	// be ~5x denser than outside.
	s := NewArrivalStream(stats.NewRNG(3), BurstRate(20, 100, 10, 2), 100, 200, 1)
	var inBurst, outBurst int
	s.Each(func(a Arrival) bool {
		if math.Mod(a.Time, 10) < 2 {
			inBurst++
		} else {
			outBurst++
		}
		return true
	})
	// Expected: burst windows 40 s * 100/s = 4000; base 160 s * 20/s = 3200.
	if inBurst < 3500 || inBurst > 4500 {
		t.Errorf("in-burst arrivals %d, want ~4000", inBurst)
	}
	if outBurst < 2800 || outBurst > 3600 {
		t.Errorf("out-of-burst arrivals %d, want ~3200", outBurst)
	}
}

func TestArrivalStreamDegenerate(t *testing.T) {
	if s := NewArrivalStream(stats.NewRNG(1), ConstantRate(0), 0, 10, 1); s != nil {
		t.Error("zero peak should yield nil stream")
	}
	if s := NewArrivalStream(nil, ConstantRate(1), 1, 10, 1); s != nil {
		t.Error("nil rng should yield nil stream")
	}
	var s *ArrivalStream
	if _, ok := s.Next(); ok {
		t.Error("nil stream yielded")
	}
}
