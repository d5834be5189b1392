package sim

import (
	"testing"
)

func TestEventOrdering(t *testing.T) {
	s := New()
	var order []int
	s.Schedule(3, func() { order = append(order, 3) })
	s.Schedule(1, func() { order = append(order, 1) })
	s.Schedule(2, func() { order = append(order, 2) })
	end := s.Run()
	if end != 3 {
		t.Errorf("final time %v, want 3", end)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("order %v", order)
	}
}

func TestTieBreakFIFO(t *testing.T) {
	s := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.Schedule(5, func() { order = append(order, i) })
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events reordered: %v", order)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	s := New()
	var times []float64
	s.Schedule(1, func() {
		times = append(times, s.Now())
		s.Schedule(2, func() {
			times = append(times, s.Now())
		})
	})
	s.Run()
	if len(times) != 2 || times[0] != 1 || times[1] != 3 {
		t.Errorf("nested event times %v, want [1 3]", times)
	}
}

func TestNegativeDelayClamped(t *testing.T) {
	s := New()
	ran := false
	s.Schedule(5, func() {
		s.Schedule(-10, func() { ran = true })
	})
	s.Run()
	if !ran {
		t.Error("negative-delay event dropped")
	}
	if s.Now() != 5 {
		t.Errorf("clock %v, want 5", s.Now())
	}
}

func TestScheduleNilPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("nil event accepted")
		}
	}()
	New().Schedule(1, nil)
}

func TestRunUntil(t *testing.T) {
	s := New()
	var ran []float64
	for _, d := range []float64{1, 2, 3, 4} {
		d := d
		s.Schedule(d, func() { ran = append(ran, d) })
	}
	s.RunUntil(2.5)
	if len(ran) != 2 {
		t.Fatalf("RunUntil(2.5) ran %d events", len(ran))
	}
	if s.Now() != 2.5 {
		t.Errorf("clock %v, want 2.5", s.Now())
	}
	if s.Pending() != 2 {
		t.Errorf("pending %d, want 2", s.Pending())
	}
	s.Run()
	if len(ran) != 4 {
		t.Error("remaining events lost")
	}
}

func TestResourceSerializesUnitCapacity(t *testing.T) {
	s := New()
	r := NewResource(s, "gpu", 1)
	var ends []float64
	for i := 0; i < 3; i++ {
		r.Submit(2, func(_, end float64) { ends = append(ends, end) })
	}
	s.Run()
	want := []float64{2, 4, 6}
	if len(ends) != len(want) {
		t.Fatalf("completed %d jobs, want %d", len(ends), len(want))
	}
	for i, e := range ends {
		if e != want[i] {
			t.Errorf("end[%d] = %v, want %v", i, e, want[i])
		}
	}
}

func TestResourceParallelCapacity(t *testing.T) {
	s := New()
	r := NewResource(s, "cpus", 2)
	var ends []float64
	for i := 0; i < 4; i++ {
		r.Submit(3, func(_, end float64) { ends = append(ends, end) })
	}
	s.Run()
	// Two servers: jobs end at 3,3,6,6.
	count3, count6 := 0, 0
	for _, e := range ends {
		switch e {
		case 3:
			count3++
		case 6:
			count6++
		default:
			t.Fatalf("unexpected end time %v", e)
		}
	}
	if count3 != 2 || count6 != 2 {
		t.Errorf("ends %v, want two at 3 and two at 6", ends)
	}
}

func TestResourceStartAfterSubmitTime(t *testing.T) {
	s := New()
	r := NewResource(s, "gpu", 1)
	var start1 float64
	s.Schedule(10, func() {
		r.Submit(1, func(st, _ float64) { start1 = st })
	})
	s.Run()
	if start1 != 10 {
		t.Errorf("job started at %v, want 10 (submission time)", start1)
	}
}

func TestResourcePipelining(t *testing.T) {
	// Two-stage pipeline: stage A 1s, stage B 2s, 3 items. With
	// pipelining the makespan is 1 + 3*2 = 7, not 3*(1+2) = 9.
	s := New()
	a := NewResource(s, "A", 1)
	b := NewResource(s, "B", 1)
	var makespan float64
	for i := 0; i < 3; i++ {
		a.Submit(1, func(_, _ float64) {
			b.Submit(2, func(_, end float64) {
				if end > makespan {
					makespan = end
				}
			})
		})
	}
	s.Run()
	if makespan != 7 {
		t.Errorf("pipelined makespan %v, want 7", makespan)
	}
}

func TestResourceZeroAndNegativeDuration(t *testing.T) {
	s := New()
	r := NewResource(s, "x", 1)
	done := 0
	r.Submit(0, func(_, _ float64) { done++ })
	r.Submit(-5, func(_, _ float64) { done++ })
	s.Run()
	if done != 2 {
		t.Errorf("zero/negative duration jobs completed %d, want 2", done)
	}
}

func TestNewResourcePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero-capacity resource accepted")
		}
	}()
	NewResource(New(), "bad", 0)
}

func TestResourceNilCallback(t *testing.T) {
	s := New()
	r := NewResource(s, "x", 1)
	r.Submit(1, nil)
	var start float64
	r.Submit(1, func(st, _ float64) { start = st })
	if end := s.Run(); end != 2 || start != 1 {
		t.Errorf("nil-callback job lost: clock %v, next job started at %v; want 2 and 1", end, start)
	}
}
