// Package workload generates the request patterns of the paper's
// deployment scenarios (§2.2): Poisson open-loop traffic for online
// inference and fixed-FPS camera streams with deadlines for real-time
// inference.
package workload

import (
	"fmt"
	"math"

	"harvest/internal/stats"
)

// Arrival is one request arrival in a generated trace.
type Arrival struct {
	// Time is the arrival offset in seconds from trace start.
	Time float64
	// Items is the number of images in the request.
	Items int
}

// RateFn maps an offset (seconds from trace start) to an instantaneous
// arrival rate in requests/second. Rate shapes drive the
// non-homogeneous Poisson generator (ArrivalStream): the load harness
// uses them for diurnal, burst and ramp-to-failure traffic.
type RateFn func(tSec float64) float64

// ConstantRate is the homogeneous shape: ratePerSec at every offset.
func ConstantRate(ratePerSec float64) RateFn {
	return func(float64) float64 { return ratePerSec }
}

// DiurnalRate models a day/night cycle compressed to periodSec: a
// sinusoid around base with swing ±amplitude, clamped at zero. Peak
// rate is base+amplitude.
func DiurnalRate(base, amplitude, periodSec float64) RateFn {
	return func(t float64) float64 {
		v := base + amplitude*math.Sin(2*math.Pi*t/periodSec)
		if v < 0 {
			return 0
		}
		return v
	}
}

// BurstRate is a square wave: burst requests/second for the first
// burstSec of every periodSec window, base otherwise. Peak rate is
// max(base, burst).
func BurstRate(base, burst, periodSec, burstSec float64) RateFn {
	return func(t float64) float64 {
		if periodSec > 0 && math.Mod(t, periodSec) < burstSec {
			return burst
		}
		return base
	}
}

// StepRate holds base requests/second until atSec, then jumps to
// stepped and holds it — the load-step shape autoscaler experiments
// use to measure reaction time. Peak rate is max(base, stepped).
func StepRate(base, stepped, atSec float64) RateFn {
	return func(t float64) float64 {
		if t >= atSec {
			return stepped
		}
		return base
	}
}

// RampRate ramps linearly from start to end requests/second over
// horizonSec (holding end afterwards): the ramp-to-failure sweep shape.
// Peak rate is max(start, end).
func RampRate(start, end, horizonSec float64) RateFn {
	return func(t float64) float64 {
		if horizonSec <= 0 || t >= horizonSec {
			return end
		}
		return start + (end-start)*t/horizonSec
	}
}

// ArrivalStream generates a Poisson arrival process one arrival at a
// time, in O(1) memory, so multi-hour million-arrival load runs never
// materialize a trace slice. Non-homogeneous rates are drawn by Lewis
// thinning: candidate arrivals at peakRate, accepted with probability
// rate(t)/peakRate. For a constant rate equal to the peak no thinning
// variates are drawn, so the stream is a homogeneous Poisson process
// that consumes the RNG one exponential variate per arrival.
type ArrivalStream struct {
	rng     *stats.RNG
	rate    RateFn
	peak    float64
	horizon float64
	items   int
	t       float64
	done    bool
}

// NewArrivalStream returns a stream of arrivals over [0, horizonSec)
// carrying itemsPerReq images each. peakRatePerSec must be ≥ the
// maximum of rate over the horizon (rates above it are clamped to it).
// Returns nil for non-positive peak, horizon or items.
func NewArrivalStream(rng *stats.RNG, rate RateFn, peakRatePerSec, horizonSec float64, itemsPerReq int) *ArrivalStream {
	if rng == nil || rate == nil || peakRatePerSec <= 0 || horizonSec <= 0 || itemsPerReq <= 0 {
		return nil
	}
	return &ArrivalStream{rng: rng, rate: rate, peak: peakRatePerSec, horizon: horizonSec, items: itemsPerReq}
}

// Next returns the next arrival, or ok=false once the horizon is
// reached (and forever after).
func (s *ArrivalStream) Next() (Arrival, bool) {
	if s == nil || s.done {
		return Arrival{}, false
	}
	for {
		s.t += s.rng.ExpFloat64() / s.peak
		if s.t >= s.horizon {
			s.done = true
			return Arrival{}, false
		}
		r := s.rate(s.t)
		// Accept without drawing a thinning variate when the rate is at
		// (or above) the peak: keeps the constant-rate stream
		// RNG-identical to the legacy slice generator.
		if r >= s.peak || (r > 0 && s.rng.Float64()*s.peak < r) {
			return Arrival{Time: s.t, Items: s.items}, true
		}
	}
}

// Each invokes fn for every remaining arrival in schedule order,
// stopping early if fn returns false.
func (s *ArrivalStream) Each(fn func(Arrival) bool) {
	for {
		a, ok := s.Next()
		if !ok || !fn(a) {
			return
		}
	}
}

// FrameTrace generates a fixed-FPS camera stream of frames frames, one
// image each. Used for the real-time ground-vehicle scenario.
func FrameTrace(fps float64, frames int) []Arrival {
	if fps <= 0 || frames <= 0 {
		return nil
	}
	out := make([]Arrival, frames)
	period := 1 / fps
	for i := range out {
		out[i] = Arrival{Time: float64(i) * period, Items: 1}
	}
	return out
}

// SLOTracker accounts deadline hits and misses for real-time pipelines.
type SLOTracker struct {
	DeadlineSeconds float64
	met, missed     int
	worst           float64
}

// NewSLOTracker creates a tracker for the given deadline.
func NewSLOTracker(deadlineSeconds float64) *SLOTracker {
	return &SLOTracker{DeadlineSeconds: deadlineSeconds}
}

// Observe records one end-to-end latency.
func (t *SLOTracker) Observe(latencySeconds float64) {
	if latencySeconds <= t.DeadlineSeconds {
		t.met++
	} else {
		t.missed++
	}
	if latencySeconds > t.worst {
		t.worst = latencySeconds
	}
}

// MissRate returns the fraction of observations over deadline.
func (t *SLOTracker) MissRate() float64 {
	total := t.met + t.missed
	if total == 0 {
		return 0
	}
	return float64(t.missed) / float64(total)
}

// WorstSeconds returns the maximum observed latency.
func (t *SLOTracker) WorstSeconds() float64 { return t.worst }

// String summarizes the tracker.
func (t *SLOTracker) String() string {
	return fmt.Sprintf("deadline=%.1fms met=%d missed=%d missRate=%.2f%% worst=%.1fms",
		t.DeadlineSeconds*1000, t.met, t.missed, t.MissRate()*100, t.worst*1000)
}
