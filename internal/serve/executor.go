package serve

import (
	"fmt"
	"time"

	"harvest/internal/engine"
	"harvest/internal/trace"
)

// instanceLoop executes fused batches on one engine instance and hands
// the batcher a token on idle after each, so the batcher knows the
// instance is free. track is the instance's trace track name.
func (rt *modelRuntime) instanceLoop(batches <-chan []*pending, idle chan<- struct{}, track string) {
	for batch := range batches {
		rt.runBatch(batch, track)
		idle <- struct{}{}
	}
}

// expire sheds the members of a claimed batch whose remaining slack at
// now no longer covers the batch's modeled execution time — a
// guaranteed SLO miss is answered with ErrDeadlineExpired instead of
// burning an engine slot — and returns the survivors. runBatch calls it
// at execution start, which is what makes "a served response met its
// deadline" a guarantee.
func (rt *modelRuntime) expire(batch []*pending, now time.Time) []*pending {
	items := 0
	for _, p := range batch {
		items += p.req.Items
	}
	horizon := now.Add(rt.cfg.execEstimate(items))
	live := batch[:0]
	for _, p := range batch {
		if !p.deadline.IsZero() && horizon.After(p.deadline) {
			rt.met.expired.Inc()
			p.ts.expired.Inc()
			p.out <- outcome{err: fmt.Errorf("%w: model %s, batch of %d", ErrDeadlineExpired, rt.cfg.Name, items)}
			continue
		}
		live = append(live, p)
	}
	return live
}

// sinceEpoch is a trace timestamp: seconds since serveEpoch, clamped
// to zero so timestamps taken before the epoch (or from zero-value
// times) never produce the negative starts trace.Validate rejects.
func sinceEpoch(t time.Time) float64 {
	if t.IsZero() {
		return 0
	}
	s := t.Sub(serveEpoch).Seconds()
	if s < 0 {
		return 0
	}
	return s
}

// stageDur is a non-negative stage duration between two stamps.
func stageDur(from, to time.Time) float64 {
	if from.IsZero() || to.IsZero() {
		return 0
	}
	if d := to.Sub(from).Seconds(); d > 0 {
		return d
	}
	return 0
}

// recordRequestSpans writes one request's stage decomposition — admit,
// queue (lane wait), batch-assembly, compute — onto its own trace
// track "req:<id>". The stamps are monotone wall-clock times, so the
// track is overlap-free by construction.
func (rt *modelRuntime) recordRequestSpans(p *pending, execStart, execEnd time.Time, batchItems int) {
	if rt.cfg.Trace == nil || p.req.ID == "" {
		return
	}
	add := func(name string, from, to time.Time) {
		d := stageDur(from, to)
		args := map[string]any{"model": rt.cfg.Name, "class": p.class.String(), "tenant": p.tenant}
		if name == "compute" {
			args["batch_items"] = batchItems
		}
		rt.cfg.Trace.Add(trace.Span{
			Name: name, Track: "req:" + p.req.ID, Start: max(sinceEpoch(to)-d, 0), Duration: d, Args: args,
		})
	}
	add("admit", p.submitAt, p.admitted)
	if p.preprocSec > 0 {
		add("preprocess", p.admitted, p.enqueued)
	}
	add("queue", p.enqueued, p.recvAt)
	add("batch-assembly", p.recvAt, execStart)
	add("compute", execStart, execEnd)
}

func (rt *modelRuntime) runBatch(batch []*pending, track string) {
	if batch = rt.expire(batch, time.Now()); len(batch) == 0 {
		return
	}
	items := 0
	var inputs [][]float32
	for _, p := range batch {
		items += p.req.Items
		inputs = append(inputs, p.req.Inputs...)
	}
	// Stamp the execution start before inference so queue time is
	// measured wall time in the batcher, never inferred by subtracting
	// modeled compute from end-to-end time.
	execStart := time.Now()
	var st engine.InferStats
	var outputs [][]float32
	var err error
	if rt.cfg.Engine.Real != nil && len(inputs) > 0 {
		outputs, st, err = rt.cfg.Engine.InferTensors(inputs, rt.cfg.InputSize)
	} else {
		st, err = rt.cfg.Engine.Infer(items)
	}
	if err == nil && rt.cfg.TimeScale > 0 {
		time.Sleep(time.Duration(st.Seconds * rt.cfg.TimeScale * float64(time.Second)))
	}
	execEnd := time.Now()
	if rt.cfg.Trace != nil {
		// Batch spans sit on the instance's wall-clock timeline
		// ([execStart, execEnd], never negative); the modeled engine
		// estimate rides along in Args instead of skewing the timeline.
		rt.cfg.Trace.Add(trace.Span{
			Name:     fmt.Sprintf("batch(%d reqs, %d imgs)", len(batch), items),
			Track:    track,
			Start:    sinceEpoch(execStart),
			Duration: stageDur(execStart, execEnd),
			Args: map[string]any{
				"requests":        len(batch),
				"items":           items,
				"failed":          err != nil,
				"modeled_seconds": st.Seconds,
			},
		})
	}
	rt.met.batches.Inc()
	// Compute latency: measured wall time of the batch execution when
	// the engine really runs or sleeps; the modeled estimate otherwise
	// (TimeScale 0 pure simulation executes in microseconds).
	computeSec := execEnd.Sub(execStart).Seconds()
	if rt.cfg.Engine.Real == nil && rt.cfg.TimeScale == 0 {
		computeSec = st.Seconds
	}
	rt.met.computeLat.Observe(computeSec)
	outOff := 0
	for _, p := range batch {
		if err != nil {
			rt.met.errors.Inc()
			p.out <- outcome{err: fmt.Errorf("serve: model %s: %w", rt.cfg.Name, err)}
			continue
		}
		queueSec := stageDur(p.enqueued, execStart)
		resp := &Response{
			ID:                p.req.ID,
			Model:             rt.cfg.Name,
			Items:             p.req.Items,
			AdmitSeconds:      stageDur(p.submitAt, p.admitted),
			PreprocessSeconds: p.preprocSec,
			QueueSeconds:      queueSec,
			LaneSeconds:       stageDur(p.enqueued, p.recvAt),
			AssembleSeconds:   stageDur(p.recvAt, execStart),
			ComputeSeconds:    computeSec,
			BatchSize:         items,
		}
		if outputs != nil && len(p.req.Inputs) > 0 {
			resp.Outputs = outputs[outOff : outOff+len(p.req.Inputs)]
			outOff += len(p.req.Inputs)
		}
		rt.recordRequestSpans(p, execStart, execEnd, items)
		rt.met.queueLat.Observe(queueSec)
		rt.met.classQueueLat[p.class].Observe(queueSec)
		rt.met.requests.Inc()
		rt.met.items.Add(int64(p.req.Items))
		p.ts.requests.Inc()
		p.ts.items.Add(int64(p.req.Items))
		p.ts.queueLat.Observe(queueSec)
		p.out <- outcome{resp: resp}
	}
}
