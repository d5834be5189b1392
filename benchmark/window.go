package main

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"
)

// windowSlices is how many equal slices a measured window is cut into.
// A run reports its best slice (see passMetrics), so interference from
// the shared host moves the run's numbers only when it covers the whole
// window.
const windowSlices = 6

// slicePerOp makes every op of a single caller a slice of its own: the
// offline workloads' ops are seconds long, and a handful of them is all
// a window holds.
const slicePerOp = 0

// opSample is one answered op of the measured window.
type opSample struct {
	done  time.Duration // completion time, since the window's start
	latMs float64
	// timed is false for an op that counts as answered but stays out of
	// the latency population (a stream frame answered from the cache).
	timed bool
}

// mark is the process's resource usage at a slice boundary.
type mark struct {
	at time.Duration
	u  usage
}

// pass is what one warm-up + window produced.
type pass struct {
	units int // ops one sample stands for (images per offline request)
	// attempted and ok count ops in the workload's unit (requests,
	// frames, images); withinSLO counts ok ops answered inside the limit.
	attempted, ok, withinSLO int
	samples                  []opSample
	marks                    []mark    // start, inner slice boundaries, end
	wrong                    []string  // correctness and conservation failures
	errs                     []string  // first few op failures
	latenessMs               []float64 // open loop: how late each frame was sent
	counts                   map[string]float64
}

func (p *pass) noteErr(err error) {
	var w wrongError
	if errors.As(err, &w) {
		p.wrong = append(p.wrong, err.Error())
		return
	}
	if len(p.errs) < 5 {
		p.errs = append(p.errs, err.Error())
	}
}

// wrongError marks an op that was answered, but incorrectly.
type wrongError struct{ msg string }

func (e wrongError) Error() string { return e.msg }

func wrongf(format string, args ...any) error { return wrongError{fmt.Sprintf(format, args...)} }

// marker samples usage at the start of a window and at each inner slice
// boundary; finish adds the closing mark and returns them all.
type marker struct {
	start  time.Time
	marks  []mark
	done   chan struct{}
	exited chan struct{}
}

// startMarker begins marking at start, which may lie in the future.
// atStart, when not nil, runs as the window opens.
func startMarker(start time.Time, window time.Duration, slices int, atStart func()) *marker {
	m := &marker{start: start, done: make(chan struct{}), exited: make(chan struct{})}
	go func() {
		defer close(m.exited)
		for k := 0; k < slices; k++ {
			timer := time.NewTimer(time.Until(start.Add(window * time.Duration(k) / time.Duration(slices))))
			select {
			case <-m.done:
				timer.Stop()
				return
			case <-timer.C:
			}
			if k == 0 && atStart != nil {
				atStart()
			}
			m.marks = append(m.marks, mark{at: time.Since(start), u: readUsage()})
		}
	}()
	return m
}

func (m *marker) finish() []mark {
	close(m.done)
	<-m.exited
	return append(m.marks, mark{at: time.Since(m.start), u: readUsage()})
}

// sliceStat is one slice of the window.
type sliceStat struct {
	seconds float64
	ops     int
	cpuMs   float64
	allocKB float64
	lats    []float64 // sorted
}

// sliceStats cuts the window at its marks. An op belongs to the slice
// it completed in; ops that complete after the nominal end belong to
// the last slice, which is as long as they made it.
func (p *pass) sliceStats() []sliceStat {
	n := len(p.marks) - 1
	if n < 1 {
		return nil
	}
	out := make([]sliceStat, n)
	for k := range out {
		a, b := p.marks[k], p.marks[k+1]
		out[k] = sliceStat{
			seconds: (b.at - a.at).Seconds(),
			cpuMs:   ms(b.u.cpu - a.u.cpu),
			allocKB: float64(b.u.alloc-a.u.alloc) / 1024,
		}
	}
	for _, s := range p.samples {
		k := sort.Search(n, func(k int) bool { return p.marks[k+1].at >= s.done })
		k = min(k, n-1)
		out[k].ops += p.units
		if s.timed {
			out[k].lats = append(out[k].lats, s.latMs)
		}
	}
	for k := range out {
		sort.Float64s(out[k].lats)
	}
	return out
}

// latencies returns the whole window's latency population, sorted.
func (p *pass) latencies() []float64 {
	var out []float64
	for _, s := range p.samples {
		if s.timed {
			out = append(out, s.latMs)
		}
	}
	sort.Float64s(out)
	return out
}

// closedLoop runs callers back to back: each sends its next request
// only when the previous one has been answered. Ops started before the
// window's deadline count; the window ends when the last of them
// completes. units is how many ops one call to do stands for. slices is
// windowSlices, or slicePerOp with a single caller.
func closedLoop(callers, slices int, warm, dur time.Duration, units int, limit time.Duration, tr *tracer, do func(w, i int) error) *pass {
	p := &pass{units: units}
	var mu sync.Mutex
	next := make([]int, callers)
	warmOps := 0
	phase := func(start time.Time, d time.Duration, measured bool) {
		deadline := start.Add(d)
		var wg sync.WaitGroup
		for w := 0; w < callers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for time.Now().Before(deadline) {
					i := next[w]
					next[w]++
					t0 := time.Now()
					err := do(w, i)
					t1 := time.Now()
					mu.Lock()
					if err != nil {
						p.noteErr(err)
					}
					if !measured {
						warmOps++
					} else {
						p.attempted += units
						if err == nil {
							p.ok += units
							lat := t1.Sub(t0)
							if lat <= limit {
								p.withinSLO += units
							}
							p.samples = append(p.samples, opSample{done: t1.Sub(start), latMs: ms(lat), timed: true})
							if slices == slicePerOp {
								p.marks = append(p.marks, mark{at: t1.Sub(start), u: readUsage()})
							}
						}
					}
					mu.Unlock()
				}
			}(w)
		}
		wg.Wait()
	}
	phase(time.Now(), warm, false)
	tr.reset()
	if warm > 0 {
		// Sized from the warm-up's rate, so the sample log does not grow,
		// and leave garbage behind, while the window is measured.
		p.samples = make([]opSample, 0, int(1.5*float64(warmOps)*float64(dur)/float64(warm)))
	}
	start := time.Now()
	if slices == slicePerOp {
		p.marks = []mark{{u: readUsage()}}
		phase(start, dur, true)
		return p
	}
	m := startMarker(start, dur, slices, nil)
	phase(start, dur, true)
	p.marks = m.finish()
	return p
}
