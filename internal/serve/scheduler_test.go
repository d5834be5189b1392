package serve

import (
	"strings"
	"testing"
	"time"

	"harvest/internal/engine"
	"harvest/internal/hw"
	"harvest/internal/models"
)

// TestSchedulerNext steps the batching decision on synthetic clock
// values: no goroutine, no sleep, no server. Each case is a script of
// arrivals and next calls with the batch (request ids) and wake time
// each call must return.
func TestSchedulerNext(t *testing.T) {
	type arrival struct {
		id       string
		class    Class
		items    int
		tensors  bool
		deadline time.Duration // offset from t0; 0 = none
	}
	type step struct {
		push  []arrival
		at    time.Duration // now, as an offset from t0
		flush bool
		want  string        // ids of the returned batch; "" = none due
		wake  time.Duration // wake as an offset from t0; noWake = zero time
	}
	const noWake = -1
	const window = 10 * time.Millisecond
	// Jetson ViT_Base at TimeScale 1 executes a batch in tens of
	// milliseconds, so deadlines a few hundred ms out shape the window.
	eng, err := engine.New(hw.Jetson(), models.NameViTBase)
	if err != nil {
		t.Fatal(err)
	}
	base := ModelConfig{Engine: eng, TimeScale: 1, MaxBatch: 8, QueueDelay: window,
		TenantQuantum: DefaultTenantQuantum, AntiStarveEvery: -1}
	exec := base.execEstimate
	n := func(id string, class Class) arrival { return arrival{id: id, class: class, items: 1} }

	cases := []struct {
		name     string
		maxBatch int
		valve    int
		delay    time.Duration
		steps    []step
	}{
		{name: "realtime overtakes online overtakes offline under backlog", maxBatch: 1, steps: []step{
			{push: []arrival{n("off1", ClassOffline), n("on1", ClassOnline), n("off2", ClassOffline),
				n("rt1", ClassRealtime), n("on2", ClassOnline), n("rt2", ClassRealtime)},
				want: "rt1", wake: noWake},
			{want: "rt2", wake: noWake},
			{want: "on1", wake: noWake},
			{push: []arrival{n("rt3", ClassRealtime)}, want: "rt3", wake: noWake},
			{want: "on2", wake: noWake},
			{want: "off1", wake: noWake},
			{want: "off2", wake: noWake},
			{want: "", wake: noWake},
		}},
		{name: "every AntiStarveEvery-th pop is lowest-lane-first", maxBatch: 1, valve: 4, steps: []step{
			{push: []arrival{n("off1", ClassOffline), n("off2", ClassOffline), n("on1", ClassOnline),
				n("rt1", ClassRealtime), n("rt2", ClassRealtime), n("rt3", ClassRealtime),
				n("rt4", ClassRealtime), n("rt5", ClassRealtime), n("rt6", ClassRealtime)},
				want: "rt1", wake: noWake},
			{want: "rt2", wake: noWake},
			{want: "rt3", wake: noWake},
			{want: "off1", wake: noWake}, // 4th pop
			{want: "rt4", wake: noWake},
			{want: "rt5", wake: noWake},
			{want: "rt6", wake: noWake},
			{want: "off2", wake: noWake}, // 8th pop
			{want: "on1", wake: noWake},
		}},
		{name: "a full batch is due at once, a partial one at the window's end", maxBatch: 4, steps: []step{
			{push: []arrival{n("a", ClassOnline), n("b", ClassOnline)}, want: "", wake: window},
			{at: window / 2, push: []arrival{n("c", ClassOnline)}, want: "", wake: window},
			{at: window - 1, want: "", wake: window},
			{at: window - 1, push: []arrival{n("d", ClassOnline), n("e", ClassOnline)}, want: "a b c d", wake: noWake},
			// e was left in its lane; its window opens when it is picked up.
			{at: window, want: "", wake: 2 * window},
			{at: 2 * window, want: "e", wake: noWake},
		}},
		{name: "a tensor request never fuses with an items-only one", maxBatch: 8, steps: []step{
			{push: []arrival{{id: "i1", items: 2}, {id: "t1", items: 2, tensors: true}, {id: "i2", items: 3}},
				want: "i1", wake: noWake},
			{want: "t1", wake: noWake},
			{want: "", wake: window},
			{at: window, want: "i2", wake: noWake},
		}},
		{name: "an over-MaxBatch arrival is held and starts the next batch", maxBatch: 8, steps: []step{
			{push: []arrival{{id: "a", items: 5}, {id: "b", items: 5}, {id: "c", items: 3}},
				at: time.Millisecond, want: "a", wake: noWake},
			{at: 2 * time.Millisecond, want: "b c", wake: noWake}, // 5+3 fills the batch
			{at: 2 * time.Millisecond, want: "", wake: noWake},
		}},
		{name: "the window closes early for the earliest deadline", maxBatch: 8, delay: time.Second, steps: []step{
			{push: []arrival{{id: "late", items: 1, deadline: 900 * time.Millisecond}},
				want: "", wake: 900*time.Millisecond - exec(1)},
			// A tighter deadline and a larger batch both pull the dispatch point in.
			{at: time.Millisecond, push: []arrival{{id: "tight", items: 1, deadline: 300 * time.Millisecond}},
				want: "", wake: 300*time.Millisecond - exec(2)},
			// A deadline-free member changes only the execution estimate.
			{at: 2 * time.Millisecond, push: []arrival{{id: "free", items: 2}},
				want: "", wake: 300*time.Millisecond - exec(4)},
			{at: 300*time.Millisecond - exec(4), want: "late tight free", wake: noWake},
		}},
		{name: "flush empties the lanes in MaxBatch batches", maxBatch: 4, steps: []step{
			{push: []arrival{n("a", ClassOffline), n("b", ClassOffline), n("c", ClassOffline), n("d", ClassOnline),
				n("e", ClassOffline), n("f", ClassOffline), n("g", ClassOffline), n("h", ClassOffline),
				n("i", ClassOffline), n("j", ClassRealtime)},
				want: "j d a b", wake: noWake},
			{want: "c e f g", wake: noWake},
			{want: "", wake: window},
			{flush: true, want: "h i", wake: noWake},
			{flush: true, want: "", wake: noWake},
		}},
	}
	t0 := time.Unix(1_700_000_000, 0)
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := base
			cfg.MaxBatch = c.maxBatch
			if c.valve != 0 {
				cfg.AntiStarveEvery = c.valve
			}
			if c.delay != 0 {
				cfg.QueueDelay = c.delay
			}
			s := newScheduler(&cfg)
			for i, st := range c.steps {
				for _, a := range st.push {
					p := &pending{req: Request{ID: a.id, Items: a.items}, class: a.class, tenant: DefaultTenant}
					if a.tensors {
						p.req.Inputs = make([][]float32, a.items)
					}
					if a.deadline != 0 {
						p.deadline = t0.Add(a.deadline)
					}
					s.push(p)
				}
				now := t0.Add(st.at)
				batch, wake := s.next(now, st.flush)
				ids := make([]string, len(batch))
				items := 0
				for j, p := range batch {
					ids[j] = p.req.ID
					items += p.req.Items
					if p.recvAt.IsZero() || p.recvAt.After(now) {
						t.Errorf("step %d: %s picked up at %v, called at %v", i, p.req.ID, p.recvAt, now)
					}
				}
				if got := strings.Join(ids, " "); got != st.want {
					t.Errorf("step %d: batch %q, want %q", i, got, st.want)
				}
				if items > cfg.MaxBatch {
					t.Errorf("step %d: batch of %d items exceeds MaxBatch %d", i, items, cfg.MaxBatch)
				}
				wantWake := time.Time{}
				if st.wake != noWake {
					wantWake = t0.Add(st.wake)
				}
				if !wake.Equal(wantWake) {
					t.Errorf("step %d: wake %v, want %v", i, wake.Sub(t0), wantWake.Sub(t0))
				}
			}
		})
	}
}
