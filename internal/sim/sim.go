// Package sim is the queueing model behind every modeled pipeline in
// this repository: jobs arriving at known times pass in order through a
// chain of FIFO stations (preprocessing, host-device copy, engine
// inference, a pool of replicas), each with a known service time. It is
// the mechanism behind the paper's Fig. 8 overlap of preprocessing,
// copy and engine on their own resources.
//
// Every service time is known when a job reaches a station, so the
// tandem needs no event queue: it is the recurrence
// start = max(server free, job ready), end = start + service.
package sim

import (
	"cmp"
	"fmt"
	"slices"
)

// Station is one stage of a tandem: Servers identical servers, each
// serving a job in Seconds (a negative time counts as zero).
type Station struct {
	Seconds float64
	Servers int
}

// Span is one job's time in service at one station.
type Span struct{ Start, End float64 }

// Tandem runs the jobs arriving at arrivals through the stations in
// turn and returns each job's service span at each station, indexed
// [job][station]. A job is ready for a station when it leaves the one
// before it (station 0: when it arrives). A station serves jobs in the
// order they become ready, ties by job index, each on the server that
// frees first (lowest index on ties). Tandem panics on a station with
// no servers.
func Tandem(arrivals []float64, stations ...Station) [][]Span {
	n, k := len(arrivals), len(stations)
	spans := make([][]Span, n)
	flat := make([]Span, n*k)
	for j := range spans {
		spans[j] = flat[j*k : (j+1)*k : (j+1)*k]
	}
	ready := slices.Clone(arrivals)
	order := make([]int, n)
	for s, st := range stations {
		if st.Servers <= 0 {
			panic(fmt.Sprintf("sim: station %d with %d servers", s, st.Servers))
		}
		service := st.Seconds
		if service < 0 {
			service = 0
		}
		for j := range order {
			order[j] = j
		}
		slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(ready[a], ready[b]) })
		free := make([]float64, st.Servers)
		for _, j := range order {
			srv := 0
			for i, t := range free {
				if t < free[srv] {
					srv = i
				}
			}
			start := free[srv]
			if start < ready[j] {
				start = ready[j]
			}
			end := start + service
			free[srv] = end
			spans[j][s] = Span{Start: start, End: end}
			ready[j] = end
		}
	}
	return spans
}
