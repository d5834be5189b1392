package sim

import (
	"testing"
	"testing/quick"

	"harvest/internal/stats"
)

// TestResourceConservation checks that every submitted job completes
// exactly once, for random job sets and capacities.
func TestResourceConservation(t *testing.T) {
	f := func(seed uint16) bool {
		r := stats.NewRNG(uint64(seed))
		s := New()
		capacity := 1 + r.Intn(4)
		res := NewResource(s, "pool", capacity)
		n := 1 + r.Intn(50)
		completions := 0
		for i := 0; i < n; i++ {
			delay := r.Float64() * 10
			dur := r.Float64() * 2
			s.Schedule(delay, func() {
				res.Submit(dur, func(_, _ float64) { completions++ })
			})
		}
		s.Run()
		return completions == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestResourceBusyTimeEqualsWork checks the busy time the resource
// assigns (end - start over all jobs) equals the sum of service
// durations.
func TestResourceBusyTimeEqualsWork(t *testing.T) {
	f := func(seed uint16) bool {
		r := stats.NewRNG(uint64(seed))
		s := New()
		res := NewResource(s, "x", 1+r.Intn(3))
		n := 1 + r.Intn(30)
		var want, busy float64
		for i := 0; i < n; i++ {
			d := r.Float64()
			want += d
			res.Submit(d, func(start, end float64) { busy += end - start })
		}
		s.Run()
		diff := busy - want
		return diff < 1e-9 && diff > -1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestMakespanLowerBound checks the simulated makespan is at least
// total work divided by capacity (no resource can beat perfect
// packing).
func TestMakespanLowerBound(t *testing.T) {
	f := func(seed uint16) bool {
		r := stats.NewRNG(uint64(seed))
		s := New()
		capacity := 1 + r.Intn(4)
		res := NewResource(s, "x", capacity)
		n := 1 + r.Intn(40)
		var total float64
		for i := 0; i < n; i++ {
			d := 0.1 + r.Float64()
			total += d
			res.Submit(d, nil)
		}
		end := s.Run()
		return end >= total/float64(capacity)-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
