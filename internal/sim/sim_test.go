package sim

import (
	"cmp"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"harvest/internal/stats"
)

func one(seconds float64) Station { return Station{Seconds: seconds, Servers: 1} }

func TestEventOrdering(t *testing.T) {
	// Jobs are served in the order they arrive, not in index order.
	spans := Tandem([]float64{3, 1, 2}, one(1))
	want := []Span{{3, 4}, {1, 2}, {2, 3}}
	for j, w := range want {
		if spans[j][0] != w {
			t.Errorf("job %d span %v, want %v", j, spans[j][0], w)
		}
	}
}

func TestTieBreakFIFO(t *testing.T) {
	arrivals := make([]float64, 10)
	for j := range arrivals {
		arrivals[j] = 5
	}
	for j, sp := range Tandem(arrivals, one(1)) {
		if sp[0].Start != 5+float64(j) {
			t.Fatalf("same-time job %d starts at %v, want %v", j, sp[0].Start, 5+j)
		}
	}
}

func TestNegativeDelayClamped(t *testing.T) {
	// A negative service time at a later station: the job leaves that
	// station as it enters it, never before it left the one before.
	sp := Tandem([]float64{5}, one(1), one(-10))[0]
	if sp[1] != (Span{6, 6}) {
		t.Errorf("negative-service span %v, want {6 6}", sp[1])
	}
}

func TestResourceSerializesUnitCapacity(t *testing.T) {
	spans := Tandem([]float64{0, 0, 0}, one(2))
	for j, want := range []float64{2, 4, 6} {
		if spans[j][0].End != want {
			t.Errorf("end[%d] = %v, want %v", j, spans[j][0].End, want)
		}
	}
}

func TestResourceParallelCapacity(t *testing.T) {
	// Two servers: jobs end at 3,3,6,6.
	spans := Tandem([]float64{0, 0, 0, 0}, Station{Seconds: 3, Servers: 2})
	for j, want := range []float64{3, 3, 6, 6} {
		if spans[j][0].End != want {
			t.Errorf("end[%d] = %v, want %v", j, spans[j][0].End, want)
		}
	}
}

func TestResourceStartAfterSubmitTime(t *testing.T) {
	if start := Tandem([]float64{10}, one(1))[0][0].Start; start != 10 {
		t.Errorf("job started at %v, want 10 (arrival time)", start)
	}
}

func TestResourcePipelining(t *testing.T) {
	// Two-stage pipeline: stage A 1s, stage B 2s, 3 items. With
	// pipelining the makespan is 1 + 3*2 = 7, not 3*(1+2) = 9.
	spans := Tandem([]float64{0, 0, 0}, one(1), one(2))
	if makespan := spans[2][1].End; makespan != 7 {
		t.Errorf("pipelined makespan %v, want 7", makespan)
	}
}

func TestResourceZeroAndNegativeDuration(t *testing.T) {
	spans := Tandem([]float64{1, 1, 1}, one(0), one(-5))
	for j, sp := range spans {
		for s, span := range sp {
			if span != (Span{1, 1}) {
				t.Errorf("job %d station %d span %v, want {1 1}", j, s, span)
			}
		}
	}
}

func TestNewResourcePanics(t *testing.T) {
	for _, servers := range []int{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("station with %d servers accepted", servers)
				}
			}()
			Tandem([]float64{0}, one(1), Station{Seconds: 1, Servers: servers})
		}()
	}
}

// randomTandem draws up to 50 jobs with unsorted arrivals through one
// to three stations of one to four servers each.
func randomTandem(seed uint16) ([]float64, []Station) {
	r := stats.NewRNG(uint64(seed))
	arrivals := make([]float64, 1+r.Intn(50))
	for j := range arrivals {
		arrivals[j] = r.Float64() * 10
	}
	stations := make([]Station, 1+r.Intn(3))
	for s := range stations {
		stations[s] = Station{Seconds: r.Float64() * 2, Servers: 1 + r.Intn(4)}
	}
	return arrivals, stations
}

func check(t *testing.T, f func(seed uint16) bool) {
	t.Helper()
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestResourceConservation checks that every job gets one span at
// every station, and leaves each no earlier than it entered.
func TestResourceConservation(t *testing.T) {
	check(t, func(seed uint16) bool {
		arrivals, stations := randomTandem(seed)
		spans := Tandem(arrivals, stations...)
		if len(spans) != len(arrivals) {
			return false
		}
		for _, sp := range spans {
			if len(sp) != len(stations) {
				return false
			}
			for _, span := range sp {
				if !(span.End >= span.Start) {
					return false
				}
			}
		}
		return true
	})
}

// TestResourceBusyTimeEqualsWork checks the busy time each station
// assigns (end - start over all jobs) equals the sum of its service
// times.
func TestResourceBusyTimeEqualsWork(t *testing.T) {
	check(t, func(seed uint16) bool {
		arrivals, stations := randomTandem(seed)
		spans := Tandem(arrivals, stations...)
		for s, st := range stations {
			busy := 0.0
			for _, sp := range spans {
				busy += sp[s].End - sp[s].Start
			}
			if math.Abs(busy-st.Seconds*float64(len(arrivals))) > 1e-9 {
				return false
			}
		}
		return true
	})
}

// TestMakespanLowerBound checks that no station finishes its work
// sooner than perfect packing onto its servers allows.
func TestMakespanLowerBound(t *testing.T) {
	check(t, func(seed uint16) bool {
		arrivals, stations := randomTandem(seed)
		spans := Tandem(arrivals, stations...)
		for s, st := range stations {
			makespan := 0.0
			for _, sp := range spans {
				makespan = max(makespan, sp[s].End)
			}
			if makespan < st.Seconds*float64(len(arrivals))/float64(st.Servers)-1e-9 {
				return false
			}
		}
		return true
	})
}

// TestStationServesInArrivalOrderOnEarliestFreeServer re-derives every
// span from the rules: a job is ready for a station when it leaves the
// one before it (or arrives); the station takes jobs in ready order,
// ties by index; each starts when it is ready and the earliest-free
// server is. With c servers the earliest free time is the c-th largest
// end among the jobs served before (servers start free at zero), and
// with one server it is the last end: FIFO.
func TestStationServesInArrivalOrderOnEarliestFreeServer(t *testing.T) {
	check(t, func(seed uint16) bool {
		arrivals, stations := randomTandem(seed)
		spans := Tandem(arrivals, stations...)
		ready := slices.Clone(arrivals)
		for s, st := range stations {
			order := make([]int, len(arrivals))
			for j := range order {
				order[j] = j
			}
			slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(ready[a], ready[b]) })
			ends := make([]float64, st.Servers) // the servers' initial free times
			for _, j := range order {
				slices.Sort(ends)
				free := ends[len(ends)-st.Servers]
				start := max(free, ready[j])
				if spans[j][s].Start != start || spans[j][s].End != start+st.Seconds {
					return false
				}
				// No job starts a station before it leaves the
				// previous one.
				if spans[j][s].Start < ready[j] {
					return false
				}
				ends = append(ends, spans[j][s].End)
				ready[j] = spans[j][s].End
			}
		}
		return true
	})
}
