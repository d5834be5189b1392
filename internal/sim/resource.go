package sim

import "fmt"

// Resource models a server pool (a GPU engine, a copy engine, a CPU
// worker pool) with a fixed number of parallel servers and FIFO
// queueing. Work is submitted with a known service duration; the
// resource assigns each job its start and completion times.
type Resource struct {
	Name string

	sim *Sim
	// freeAt holds the next-free virtual time of each server.
	freeAt []float64
}

// NewResource creates a resource with the given parallelism.
func NewResource(s *Sim, name string, capacity int) *Resource {
	if capacity <= 0 {
		panic(fmt.Sprintf("sim: resource %q with capacity %d", name, capacity))
	}
	return &Resource{Name: name, sim: s, freeAt: make([]float64, capacity)}
}

// Submit enqueues a job of the given service duration. onDone (may be
// nil) runs at the job's completion time with the job's (start, end)
// times. FIFO order among submissions is preserved because each job is
// assigned to the earliest-available server at submission time; this
// matches the behaviour of a work queue drained by identical servers
// when jobs are submitted in non-decreasing time order, as all users in
// this repository do.
func (r *Resource) Submit(duration float64, onDone func(start, end float64)) {
	if duration < 0 {
		duration = 0
	}
	// Pick the earliest-free server.
	best := 0
	for i, t := range r.freeAt {
		if t < r.freeAt[best] {
			best = i
		}
	}
	start := r.freeAt[best]
	if start < r.sim.Now() {
		start = r.sim.Now()
	}
	end := start + duration
	r.freeAt[best] = end
	r.sim.Schedule(end-r.sim.Now(), func() {
		if onDone != nil {
			onDone(start, end)
		}
	})
}
