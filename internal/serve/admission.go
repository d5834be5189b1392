package serve

import (
	"context"
	"fmt"
	"time"

	"harvest/internal/preprocess"
)

// admit passes the request through its tenant's quota and reserves one
// admission-queue slot for it; release undoes it. Quotas gate before
// the shared queue: an over-quota tenant burns its own 429 budget
// without having touched a queue slot. A full queue refuses at once
// with ErrOverloaded.
func (rt *modelRuntime) admit(ts *tenantState, tenant string, items int) error {
	if err := rt.checkQuota(ts, tenant, items); err != nil {
		return err
	}
	limit := int64(rt.cfg.MaxQueueDepth)
	for {
		cur := rt.inflight.Load()
		if cur >= limit {
			return fmt.Errorf("%w: model %s, queue depth %d", ErrOverloaded, rt.cfg.Name, limit)
		}
		if rt.inflight.CompareAndSwap(cur, cur+1) {
			break
		}
	}
	ts.queuedReqs.Add(1)
	ts.queuedItems.Add(int64(items))
	return nil
}

// release returns a pending's admission slot and tenant occupancy,
// exactly once per pending, when it leaves the queue for any reason
// (dispatch, eviction, shutdown).
func (rt *modelRuntime) release(p *pending) {
	rt.inflight.Add(-1)
	p.ts.queuedReqs.Add(-1)
	p.ts.queuedItems.Add(int64(-p.req.Items))
}

// checkInputs refuses tensors a real engine cannot run: each must hold
// exactly 3·size² values, all finite. It runs before the request is
// queued, so a malformed request fails alone instead of failing every
// request fused into its batch, and the forward's kernels see finite
// inputs only.
func checkInputs(inputs [][]float32, size int) error {
	want := 3 * size * size
	for i, in := range inputs {
		if len(in) != want {
			return fmt.Errorf("%w: input %d has %d values, want %d", ErrBadInput, i, len(in), want)
		}
		for j, v := range in {
			if v-v != 0 { // 0 for every finite v, NaN for ±Inf and NaN
				return fmt.Errorf("%w: input %d value %d is %v", ErrBadInput, i, j, v)
			}
		}
	}
	return nil
}

// resolveDeadline picks a pending's effective deadline: the request's
// explicit deadline, else the context's, else the class default
// (realtime only).
func (rt *modelRuntime) resolveDeadline(ctx context.Context, req *Request) time.Time {
	if !req.Deadline.IsZero() {
		return req.Deadline
	}
	if dl, ok := ctx.Deadline(); ok {
		return dl
	}
	if req.Class == ClassRealtime && rt.cfg.RealtimeBudget > 0 {
		return time.Now().Add(rt.cfg.RealtimeBudget)
	}
	return time.Time{}
}

// Submit sends a request and blocks until its response, the context's
// cancellation, or server shutdown. Admission is bounded: when the
// model's queue already holds MaxQueueDepth requests, Submit rejects
// immediately with ErrOverloaded instead of blocking. A request whose
// context ends while it is still queued is withdrawn from the batcher
// and never occupies a dispatched batch slot; once a batch has claimed
// it, Submit waits for that batch's outcome. An admitted request whose
// deadline passes before execution could complete is shed with
// ErrDeadlineExpired.
func (s *Server) Submit(ctx context.Context, caller *Request) (*Response, error) {
	submitAt := time.Now()
	// A copy: Items and Tenant are normalized and images swapped for
	// their tensors without writing into the caller's Request.
	req := *caller
	if req.Items <= 0 && len(req.Inputs) == 0 && len(req.Images) == 0 {
		return nil, ErrEmptyRequest
	}
	if len(req.Inputs) > 0 && len(req.Images) > 0 {
		return nil, fmt.Errorf("%w: inputs=%d, images=%d", ErrMixedInputs, len(req.Inputs), len(req.Images))
	}
	if req.Items == 0 {
		if req.Items = len(req.Inputs); req.Items == 0 {
			req.Items = len(req.Images)
		}
	}
	if len(req.Inputs) > 0 && req.Items != len(req.Inputs) {
		return nil, fmt.Errorf("%w: items=%d, inputs=%d", ErrItemsMismatch, req.Items, len(req.Inputs))
	}
	if len(req.Images) > 0 && req.Items != len(req.Images) {
		return nil, fmt.Errorf("%w: items=%d, images=%d", ErrItemsMismatch, req.Items, len(req.Images))
	}
	if req.Class < 0 || req.Class >= numClasses {
		return nil, fmt.Errorf("%w: %d", ErrBadClass, int(req.Class))
	}
	tenant, err := ParseTenant(req.Tenant)
	if err != nil {
		return nil, err
	}
	req.Tenant = tenant
	rt, err := s.runtime(req.Model)
	if err != nil {
		return nil, err
	}
	select {
	case <-rt.closing:
		return nil, ErrServerClosed
	default:
	}
	if req.Items > rt.cfg.MaxBatch {
		return nil, fmt.Errorf("%w: %d > %d", ErrTooManyItems, req.Items, rt.cfg.MaxBatch)
	}
	if rt.cfg.Engine.Real != nil {
		if err := checkInputs(req.Inputs, rt.cfg.InputSize); err != nil {
			return nil, err
		}
	}
	if len(req.Images) > 0 {
		if rt.cfg.Preproc == nil {
			return nil, fmt.Errorf("%w: model %s", ErrNoPreprocessor, rt.cfg.Name)
		}
		for i, img := range req.Images {
			if int64(len(img)) > rt.cfg.MaxImageBytes {
				return nil, fmt.Errorf("%w: image %d is %d bytes, limit %d",
					ErrImageTooLarge, i, len(img), rt.cfg.MaxImageBytes)
			}
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ts := rt.tenantState(tenant)
	deadline := rt.resolveDeadline(ctx, &req)
	if !deadline.IsZero() && !time.Now().Before(deadline) {
		// Dead on arrival: shed without occupying a queue slot.
		rt.met.expired.Inc()
		ts.expired.Inc()
		return nil, fmt.Errorf("%w: model %s, expired on submit", ErrDeadlineExpired, rt.cfg.Name)
	}
	if err := rt.admit(ts, tenant, req.Items); err != nil {
		rt.met.shed.Inc()
		ts.shed.Inc()
		return nil, err
	}
	p := &pending{
		req:      req,
		class:    req.Class,
		tenant:   tenant,
		ts:       ts,
		deadline: deadline,
		submitAt: submitAt,
		admitted: time.Now(),
		out:      make(chan outcome, 1),
	}
	if len(req.Images) > 0 {
		// The preprocess stage runs on the submitter's goroutine between
		// admission and lane enqueue, so admission control bounds how
		// many requests can be decoding at once and with it the CPU they
		// use. The resulting tensors ride the normal tensor path from
		// here on.
		items := make([]preprocess.Item, len(req.Images))
		for i, img := range req.Images {
			items[i] = preprocess.Item{Encoded: img, Format: req.ImageFormat}
		}
		res, err := rt.cfg.Preproc.ProcessBatch(items)
		if err == nil && len(res.Tensors) != len(items) {
			err = fmt.Errorf("preprocessor %s returned no tensors", rt.cfg.Preproc.Name())
		}
		if err != nil {
			rt.release(p)
			rt.met.errors.Inc()
			return nil, fmt.Errorf("%w: model %s: %v", ErrPreprocess, rt.cfg.Name, err)
		}
		// Nothing reads the encoded bytes from here on: a queued frame
		// pins only its tensors, and the caller may reuse the images as
		// soon as Submit returns, however it returns. A modeled engine
		// never reads the tensors either, so its queue holds neither.
		p.req.Images = nil
		if rt.cfg.Engine.Real != nil {
			p.req.Inputs = res.Tensors
		} else {
			rt.recycle(res.Tensors)
		}
		p.preprocSec = time.Since(p.admitted).Seconds()
		rt.met.preprocLat.Observe(p.preprocSec)
	}
	p.enqueued = time.Now()
	rt.enqueue(p)
	// Once enqueued, the request is guaranteed an outcome: the batcher
	// either claims it (response, shed, or backend error arrives) or
	// the shutdown path fails it. Queued work is drained, not
	// abandoned, so shutdown-in-progress is not a wait condition; only
	// a fully drained runtime (the enqueue raced past the batcher's
	// exit) is.
	var o outcome
	select {
	case o = <-p.out:
	case <-ctx.Done():
		if p.cancel() {
			// Withdrawn before dispatch; the batcher will evict it.
			return nil, ctx.Err()
		}
		o = <-p.out // a batch already claimed it; its outcome is imminent
	case <-rt.drained:
		if p.claim() {
			rt.release(p)
			return nil, ErrServerClosed
		}
		o = <-p.out
	}
	// With the outcome delivered nothing reads the tensors again (the
	// engine copies its inputs, no response aliases them). Only those the
	// preprocess stage made go back, never the caller's own.
	if len(req.Images) > 0 {
		rt.recycle(p.req.Inputs)
	}
	return o.resp, o.err
}

// recycle hands tensors back to a preprocessor that reuses them (a
// CPUEngine with a tensor pool).
func (rt *modelRuntime) recycle(tensors [][]float32) {
	if r, ok := rt.cfg.Preproc.(interface{ Recycle([][]float32) }); ok {
		r.Recycle(tensors)
	}
}

// checkQuota enforces the tenant's queue-share cap and admission rate
// before a queue slot is reserved. Returns a *QuotaError (unwrapping
// to ErrOverloaded) on refusal.
func (rt *modelRuntime) checkQuota(ts *tenantState, tenant string, items int) error {
	q, ok := quotaFor(rt.cfg.TenantQuotas, tenant)
	if !ok {
		return nil
	}
	if q.MaxQueueShare > 0 {
		cap := int64(q.MaxQueueShare * float64(rt.cfg.MaxQueueDepth))
		if cap < 1 {
			cap = 1
		}
		if ts.queuedReqs.Load() >= cap {
			return &QuotaError{Tenant: tenant, Reason: "share",
				RetryAfter: rt.tenantDrainEstimate(ts)}
		}
	}
	if ok, wait := ts.bucket.take(float64(items), q); !ok {
		return &QuotaError{Tenant: tenant, Reason: "rate", RetryAfter: wait}
	}
	return nil
}

// execEstimate predicts the wall-clock execution time of a fused batch
// of the given size: the calibrated model latency scaled by TimeScale
// when simulating (0 in pure simulation, which executes in
// microseconds), or the raw modeled latency when a real backend
// computes.
func (cfg *ModelConfig) execEstimate(items int) time.Duration {
	if items <= 0 {
		return 0
	}
	if items > cfg.MaxBatch {
		items = cfg.MaxBatch
	}
	sec := cfg.Engine.Perf.LatencySeconds(items)
	if cfg.Engine.Real == nil {
		sec *= cfg.TimeScale
	}
	return time.Duration(sec * float64(time.Second))
}

// drainRounds is how many execution rounds working off queuedItems
// takes: the backlog packed into MaxBatch-sized batches, spread across
// the model's instances.
func (rt *modelRuntime) drainRounds(queuedItems int64) int64 {
	maxBatch := max(int64(rt.cfg.MaxBatch), 1)
	instances := max(int64(rt.cfg.Instances), 1)
	batches := (queuedItems + maxBatch - 1) / maxBatch
	return (batches + instances - 1) / instances
}

// EstimateWait predicts how long a new items-sized submission would
// take to complete if admitted now: the already-queued work plus this
// submission, packed into MaxBatch-sized batches across the model's
// instances, at the calibrated (TimeScale-adjusted) batch execution
// time. The queue holds everything admitted that has not started: the
// batcher dispatches only to a free instance, so no batch waits
// between the lanes and an instance. The remaining time of batches
// already executing, at most one round, is not priced.
func (s *Server) EstimateWait(name string, items int) (time.Duration, error) {
	rt, err := s.runtime(name)
	if err != nil {
		return 0, err
	}
	if items < 1 {
		items = 1
	}
	queued := rt.inflight.Load() + int64(items)
	maxBatch := int64(rt.cfg.MaxBatch)
	rounds := rt.drainRounds(queued)
	// Full rounds execute at MaxBatch; the tail round runs only what
	// is actually queued. On an unloaded tier this matters: one frame
	// executes as a batch of one, not a hypothetical full batch — an
	// always-full-batch estimate would price an idle edge as if
	// saturated and shed realtime frames it could easily serve.
	tail := queued - (rounds-1)*maxBatch*int64(rt.cfg.Instances)
	if tail < 1 {
		tail = 1
	} else if tail > maxBatch {
		tail = maxBatch
	}
	wait := time.Duration(rounds-1)*rt.cfg.execEstimate(rt.cfg.MaxBatch) +
		rt.cfg.execEstimate(int(tail))
	// The batching window delays dispatch of a non-full batch once.
	return rt.cfg.QueueDelay + wait, nil
}

// retryAfterSeconds estimates how long an overloaded model needs to
// work off the backlog ahead of the caller's class, for the 429
// Retry-After header (whole seconds, clamped to [1, 60]). Only the
// caller's lane and higher-priority lanes count: an offline-flooded
// queue must not tell a realtime client to back off for the offline
// drain time.
func (s *Server) retryAfterSeconds(name string, class Class) int {
	rt, err := s.runtime(name)
	if err != nil {
		return 1
	}
	rt.qmu.Lock()
	backlog := rt.sched.backlogItemsAtOrAbove(class)
	rt.qmu.Unlock()
	drain := float64(rt.drainRounds(backlog)) * rt.cfg.execEstimate(rt.cfg.MaxBatch).Seconds()
	return clampRetrySeconds(int(drain + 1))
}

// tenantDrainEstimate predicts how long this tenant's queued items
// take to drain, pricing its backlog alone (fair scheduling serves it
// regardless of other tenants' queues).
func (rt *modelRuntime) tenantDrainEstimate(ts *tenantState) time.Duration {
	rounds := rt.drainRounds(max(ts.queuedItems.Load(), 1))
	return rt.cfg.QueueDelay + time.Duration(rounds)*rt.cfg.execEstimate(rt.cfg.MaxBatch)
}
