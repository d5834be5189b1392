// Package serve implements the HARVEST backend request orchestration
// layer — the NVIDIA Triton Server analogue of paper §3: a model
// repository hosting per-model engine instances behind dynamic
// batchers, with a decoupled frontend (in-process API here, HTTP in
// http.go) that transmits input data and generates backend requests.
package serve

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"harvest/internal/engine"
	"harvest/internal/imaging"
	"harvest/internal/metrics"
	"harvest/internal/preprocess"
	"harvest/internal/trace"
)

// serveEpoch anchors wall-clock trace timestamps.
var serveEpoch = time.Now()

// Errors returned by the server.
var (
	ErrUnknownModel  = errors.New("serve: unknown model")
	ErrServerClosed  = errors.New("serve: server closed")
	ErrTooManyItems  = errors.New("serve: request exceeds model max batch")
	ErrEmptyRequest  = errors.New("serve: request has no items")
	ErrItemsMismatch = errors.New("serve: request items disagree with inputs")
	ErrDuplicateName = errors.New("serve: model already registered")
	// ErrOverloaded rejects a submission whose model's admission queue
	// is full. The request was never admitted; retrying later is safe.
	ErrOverloaded = errors.New("serve: overloaded, admission queue full")
	// ErrDeadlineExpired sheds an admitted request whose deadline can no
	// longer be met: the batcher evicts it instead of burning an engine
	// slot on a guaranteed SLO miss.
	ErrDeadlineExpired = errors.New("serve: deadline expired before execution")
	// ErrBadClass rejects a request with an out-of-range SLO class.
	ErrBadClass = errors.New("serve: invalid SLO class")
	// ErrNoPreprocessor rejects an encoded-image request on a model
	// registered without a preprocessing engine.
	ErrNoPreprocessor = errors.New("serve: model accepts no encoded images")
	// ErrMixedInputs rejects a request carrying both ready tensors and
	// encoded images.
	ErrMixedInputs = errors.New("serve: request has both tensors and encoded images")
	// ErrPreprocess reports a failed preprocessing stage (undecodable
	// image bytes): the caller's payload is at fault.
	ErrPreprocess = errors.New("serve: preprocess failed")
	// ErrImageTooLarge rejects an encoded image above the model's
	// MaxImageBytes.
	ErrImageTooLarge = errors.New("serve: encoded image too large")
)

// DefaultDrainTimeout bounds Close's graceful drain when
// ModelConfig.DrainTimeout is zero.
const DefaultDrainTimeout = 5 * time.Second

// DefaultMaxQueueDepth bounds a model's admission queue when
// ModelConfig.MaxQueueDepth is zero.
const DefaultMaxQueueDepth = 1024

// DefaultRealtimeBudget is the implicit deadline of realtime-class
// requests that carry no explicit deadline: the paper's Fig. 6 SLO of
// 16.7 ms, one frame at the 60 QPS real-time threshold.
const DefaultRealtimeBudget = 16700 * time.Microsecond

// DefaultMaxImageBytes caps one encoded image on the /v2 infer path
// when ModelConfig.MaxImageBytes is zero: 32 MiB covers an
// uncompressed 4K PPM frame (the CRSA ground camera, the largest
// source in the paper's datasets) with headroom.
const DefaultMaxImageBytes = 32 << 20

// Class is a request's SLO class, mapping to the paper's §2.2
// deployment scenarios. The zero value is ClassOnline.
type Class int

const (
	// ClassOnline is interactive online traffic (default): no implicit
	// deadline, normal dispatch priority.
	ClassOnline Class = iota
	// ClassRealtime is the real-time scenario: dispatched ahead of the
	// other lanes and subject to DefaultRealtimeBudget (or the model's
	// RealtimeBudget) when no explicit deadline is given.
	ClassRealtime
	// ClassOffline is throughput-oriented batch work: dispatched only
	// when no higher-priority work is queued.
	ClassOffline
	numClasses
)

// laneOrder lists the classes from highest to lowest dispatch priority.
var laneOrder = [numClasses]Class{ClassRealtime, ClassOnline, ClassOffline}

// String returns the wire name of the class.
func (c Class) String() string {
	switch c {
	case ClassOnline:
		return "online"
	case ClassRealtime:
		return "realtime"
	case ClassOffline:
		return "offline"
	}
	return fmt.Sprintf("class(%d)", int(c))
}

// ParseClass maps a wire name to a Class. The empty string is
// ClassOnline.
func ParseClass(s string) (Class, error) {
	switch strings.ToLower(s) {
	case "", "online":
		return ClassOnline, nil
	case "realtime", "real-time":
		return ClassRealtime, nil
	case "offline", "batch":
		return ClassOffline, nil
	}
	return ClassOnline, fmt.Errorf("%w: %q", ErrBadClass, s)
}

// Request is one inference request from the frontend. Items counts the
// images in the request; Inputs optionally carries real tensors for
// models with a real compute backend. When both are set they must
// agree: Items == len(Inputs). Alternatively Images carries encoded
// image bytes for models with a preprocessing engine — the server
// decodes, resizes and normalizes them into Inputs before batching
// (exclusive with Inputs).
type Request struct {
	ID     string
	Model  string
	Items  int
	Inputs [][]float32
	// Images holds encoded image payloads (one per item) for the
	// preprocessing path.
	Images [][]byte
	// ImageFormat is the encoding of every entry in Images.
	ImageFormat imaging.Format
	// Class selects the scenario lane (default ClassOnline). Realtime
	// requests are batched ahead of online ones, which are batched
	// ahead of offline ones.
	Class Class
	// Deadline, when set, is the absolute SLO deadline: the batcher
	// sheds the request with ErrDeadlineExpired once meeting it has
	// become impossible. Unset, it falls back to the submission
	// context's deadline, then to the class default (realtime only).
	Deadline time.Time
	// Tenant identifies the submitting tenant for fair scheduling,
	// quotas and per-tenant metrics. Empty maps to DefaultTenant;
	// otherwise it must satisfy ParseTenant.
	Tenant string
}

// Response reports the outcome of a request.
type Response struct {
	ID    string
	Model string
	Items int
	// AdmitSeconds is wall time spent in admission control, from Submit
	// entry to the admission-slot reservation.
	AdmitSeconds float64
	// PreprocessSeconds is wall time spent decoding and preprocessing
	// the request's encoded images into tensors; zero on the tensor and
	// items-only paths.
	PreprocessSeconds float64
	// QueueSeconds is real wall time spent in the dynamic batcher,
	// measured from enqueue to the batch's execution start. It is the
	// sum of the lane wait (LaneSeconds) and the batch-assembly window
	// (AssembleSeconds).
	QueueSeconds float64
	// LaneSeconds is the lane wait: enqueue to batcher pickup.
	LaneSeconds float64
	// AssembleSeconds is the batch-assembly window: batcher pickup to
	// the fused batch's execution start.
	AssembleSeconds float64
	// ComputeSeconds is the execution time of the batch the request was
	// folded into: measured wall time when the engine really runs or
	// sleeps, the modeled estimate in pure simulation (no real backend
	// and TimeScale == 0). It always equals the value observed by the
	// compute-latency metric.
	ComputeSeconds float64
	// BatchSize is the size of the fused batch that served the request.
	BatchSize int
	// Outputs holds per-image logits when the model has a real backend.
	Outputs [][]float32
}

// ModelConfig configures one served model.
type ModelConfig struct {
	Name string
	// Engine provides (modeled) performance and memory limits.
	Engine *engine.Engine
	// MaxBatch caps the dynamic batcher's fused batch size. 0 means
	// use the engine's memory-derived max batch.
	MaxBatch int
	// QueueDelay is the dynamic batching window: how long the batcher
	// waits for more requests before dispatching a partial batch. The
	// window closes early when the oldest deadline in the forming batch
	// would otherwise be missed.
	QueueDelay time.Duration
	// Instances is the number of parallel engine instances (paper §5:
	// multi-instance strategies). Default 1.
	Instances int
	// InputSize is required when Engine.Real is set, to validate and
	// shape real tensor inputs.
	InputSize int
	// TimeScale makes instances really sleep TimeScale * modeled
	// seconds, so closed-loop clients observe platform-like pacing.
	// 0 disables sleeping (tests, max-speed experiments).
	TimeScale float64
	// DrainTimeout bounds how long Close waits for already-queued
	// requests to be dispatched and served before failing stragglers.
	// 0 means DefaultDrainTimeout; negative means no grace (fail
	// queued work immediately).
	DrainTimeout time.Duration
	// MaxQueueDepth bounds requests admitted but not yet dispatched,
	// across all lanes. A full queue rejects new submissions
	// immediately with ErrOverloaded instead of blocking. 0 means
	// DefaultMaxQueueDepth.
	MaxQueueDepth int
	// RealtimeBudget is the implicit deadline of realtime-class
	// requests with no explicit or context deadline. 0 means
	// DefaultRealtimeBudget; negative disables the implicit deadline.
	RealtimeBudget time.Duration
	// Trace, when non-nil, receives one span per executed batch
	// (wall-clock, track = model name) with queue/batch metadata.
	Trace *trace.Recorder
	// Preproc, when non-nil, enables the encoded-image path: requests
	// carrying Images are decoded/resized/normalized by this engine
	// (which must materialize tensors) between admission and lane
	// enqueue. Must be safe for concurrent ProcessBatch calls — a
	// preprocess.CPUEngine, typically over a shared worker pool. For
	// models with a real backend its OutRes must equal InputSize.
	Preproc preprocess.Engine
	// MaxImageBytes caps one encoded image on the Images path. 0 means
	// DefaultMaxImageBytes.
	MaxImageBytes int64
	// TenantQuotas maps tenant ids to admission quotas. The key "*"
	// applies to every tenant without an explicit entry. Nil or missing
	// entries are unlimited.
	TenantQuotas map[string]TenantQuota
	// TenantQuantum is the deficit-round-robin quantum, in request
	// items, credited per tenant sub-queue visit within a lane. 0 means
	// DefaultTenantQuantum.
	TenantQuantum int
	// AntiStarveEvery makes every Nth dispatch visit the lanes
	// lowest-priority first, so offline work is guaranteed a 1-in-N
	// share under saturating higher-priority load. 0 means
	// DefaultAntiStarveEvery; negative disables (strict priority).
	AntiStarveEvery int
}

// Lifecycle states of a pending request. The submitter and the batcher
// race on the transition out of statePending: the batcher claims a
// request for a dispatched batch, the submitter cancels it. Whoever
// wins the CAS owns the slot, so a cancelled request never occupies a
// dispatched batch slot and a claimed request always gets a response.
const (
	statePending int32 = iota
	stateClaimed
	stateCancelled
)

type pending struct {
	req      *Request
	class    Class
	tenant   string       // canonical tenant id (DRR sub-queue key)
	ts       *tenantState // per-tenant accounting, set at admission
	deadline time.Time    // zero = none
	submitAt time.Time    // Submit entry (admit stage start)
	admitted time.Time    // admission-slot reservation (preprocess stage start)
	// preprocSec is the wall time the preprocess stage took; zero when
	// the request carried no encoded images.
	preprocSec float64
	enqueued   time.Time
	// recvAt is the batcher pickup time, stamped only by the batcher
	// goroutine (stampRecv); the send on the batches channel orders it
	// before any instance read.
	recvAt time.Time
	state  atomic.Int32
	done   chan *Response
	err    chan error
}

// claim attempts to take ownership of the pending for batch dispatch.
func (p *pending) claim() bool {
	return p.state.CompareAndSwap(statePending, stateClaimed)
}

// cancel attempts to withdraw the pending before dispatch.
func (p *pending) cancel() bool {
	return p.state.CompareAndSwap(statePending, stateCancelled)
}

// modelMetrics aggregates per-model serving observability, built on
// internal/metrics primitives. Counters and recorders are individually
// thread-safe; snapshots are eventually consistent.
type modelMetrics struct {
	requests   metrics.Counter // requests completed successfully
	items      metrics.Counter // images served in successful requests
	batches    metrics.Counter // fused batches executed
	errors     metrics.Counter // requests failed by the backend or shutdown
	cancelled  metrics.Counter // requests evicted before dispatch
	shed       metrics.Counter // submissions rejected by admission control
	expired    metrics.Counter // admitted requests evicted past their deadline
	queueLat   metrics.LatencyRecorder
	computeLat metrics.LatencyRecorder
	// preprocLat observes the encoded-image preprocess stage (wall
	// seconds per request).
	preprocLat metrics.LatencyRecorder
	// classQueueLat decomposes queue latency per SLO class.
	classQueueLat [numClasses]metrics.LatencyRecorder
}

type modelRuntime struct {
	cfg ModelConfig
	// qmu guards the admission lanes: one deficit-round-robin lane per
	// SLO class, each holding per-tenant sub-queues. The batcher drains
	// them in laneOrder (with a bounded anti-starvation share for lower
	// lanes); within a lane, tenants share capacity fairly by DRR.
	qmu   sync.Mutex
	lanes [numClasses]*drrLane
	// polls counts successful pops (under qmu); every AntiStarveEvery-th
	// pop prefers the lowest-priority lane.
	polls uint64
	// notify wakes the single batcher goroutine after an enqueue. It is
	// buffered(1): a pending wakeup is never lost, and an enqueue never
	// blocks.
	notify chan struct{}
	// tmu guards the per-tenant accounting map.
	tmu     sync.Mutex
	tenants map[string]*tenantState

	closing  chan struct{} // closed to start graceful drain
	abort    chan struct{} // closed when the drain timeout expires
	drained  chan struct{} // closed when shutdown has failed all stragglers
	wg       sync.WaitGroup
	inflight atomic.Int64 // requests enqueued but not yet dispatched/evicted
	met      modelMetrics
}

// Server is the inference server.
type Server struct {
	mu     sync.Mutex
	models map[string]*modelRuntime
	closed bool
	// trace, when set, is the default recorder for models registered
	// without their own (ModelConfig.Trace). Request-stage spans and
	// batch spans land here.
	trace *trace.Recorder
	// extensions are extra metric blocks merged into GET /v2/metrics
	// and GET /metrics by layers built on top of the server (the
	// streaming ingest tier); see AddMetricsExtension.
	extensions []metricsExtension
}

// NewServer creates an empty server.
func NewServer() *Server {
	return &Server{models: make(map[string]*modelRuntime)}
}

// SetTrace installs the server-wide trace recorder. Models registered
// afterwards without an explicit ModelConfig.Trace record into it.
// Use a ring recorder (trace.NewRing) on long-lived servers.
func (s *Server) SetTrace(r *trace.Recorder) {
	s.mu.Lock()
	s.trace = r
	s.mu.Unlock()
}

// Trace returns the server-wide trace recorder, or nil.
func (s *Server) Trace() *trace.Recorder {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.trace
}

// Register adds a model to the repository and starts its batcher and
// instance goroutines.
func (s *Server) Register(cfg ModelConfig) error {
	if cfg.Name == "" || cfg.Engine == nil {
		return fmt.Errorf("serve: model config needs a name and an engine")
	}
	if cfg.Instances <= 0 {
		cfg.Instances = 1
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = cfg.Engine.MaxBatch(0)
	}
	if cfg.MaxBatch <= 0 {
		return fmt.Errorf("serve: model %s does not fit on %s at any batch size",
			cfg.Name, cfg.Engine.Platform.Name)
	}
	if cfg.DrainTimeout == 0 {
		cfg.DrainTimeout = DefaultDrainTimeout
	}
	if cfg.MaxQueueDepth <= 0 {
		cfg.MaxQueueDepth = DefaultMaxQueueDepth
	}
	if cfg.RealtimeBudget == 0 {
		cfg.RealtimeBudget = DefaultRealtimeBudget
	}
	if cfg.MaxImageBytes <= 0 {
		cfg.MaxImageBytes = DefaultMaxImageBytes
	}
	if cfg.TenantQuantum <= 0 {
		cfg.TenantQuantum = DefaultTenantQuantum
	}
	if cfg.AntiStarveEvery == 0 {
		cfg.AntiStarveEvery = DefaultAntiStarveEvery
	}
	if cfg.Preproc != nil && cfg.Engine.Real != nil && cfg.InputSize > 0 &&
		cfg.Preproc.OutRes() != cfg.InputSize {
		return fmt.Errorf("serve: model %s: preprocessor output %d does not match input size %d",
			cfg.Name, cfg.Preproc.OutRes(), cfg.InputSize)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrServerClosed
	}
	if _, ok := s.models[cfg.Name]; ok {
		return fmt.Errorf("%w: %s", ErrDuplicateName, cfg.Name)
	}
	if cfg.Trace == nil {
		cfg.Trace = s.trace
	}
	rt := &modelRuntime{
		cfg:     cfg,
		notify:  make(chan struct{}, 1),
		tenants: make(map[string]*tenantState),
		closing: make(chan struct{}),
		abort:   make(chan struct{}),
		drained: make(chan struct{}),
	}
	for c := range rt.lanes {
		rt.lanes[c] = newDRRLane(cfg.TenantQuantum)
	}
	s.models[cfg.Name] = rt

	batches := make(chan []*pending, cfg.Instances*2)
	rt.wg.Add(1)
	go func() {
		defer rt.wg.Done()
		rt.batcherLoop(batches)
	}()
	for i := 0; i < cfg.Instances; i++ {
		track := cfg.Name
		if cfg.Instances > 1 {
			// One trace track per instance: each instance is a serial
			// resource, so per-instance tracks keep timelines
			// overlap-free under trace.Validate.
			track = fmt.Sprintf("%s#%d", cfg.Name, i)
		}
		rt.wg.Add(1)
		go func() {
			defer rt.wg.Done()
			rt.instanceLoop(batches, track)
		}()
	}
	return nil
}

// hasInputs reports whether a request carries real tensors. Batches
// are kept homogeneous in this: fusing tensor-carrying and items-only
// requests would make InferTensors run over fewer tensors than the
// batch's item count claims.
func hasInputs(p *pending) bool { return len(p.req.Inputs) > 0 }

// admit reserves one admission-queue slot, or reports the queue full.
func (rt *modelRuntime) admit() bool {
	max := int64(rt.cfg.MaxQueueDepth)
	for {
		cur := rt.inflight.Load()
		if cur >= max {
			return false
		}
		if rt.inflight.CompareAndSwap(cur, cur+1) {
			return true
		}
	}
}

// estimatedExecDuration predicts the wall-clock execution time of a
// fused batch of the given size: the calibrated model latency scaled by
// TimeScale when simulating (0 in pure simulation, which executes in
// microseconds), or the raw modeled latency when a real backend
// computes.
func (rt *modelRuntime) estimatedExecDuration(items int) time.Duration {
	if items <= 0 {
		return 0
	}
	if items > rt.cfg.MaxBatch {
		items = rt.cfg.MaxBatch
	}
	sec := rt.cfg.Engine.Perf.LatencySeconds(items)
	if rt.cfg.Engine.Real == nil {
		sec *= rt.cfg.TimeScale
	}
	return time.Duration(sec * float64(time.Second))
}

// stampRecv marks the batcher pickup time (the end of the lane-wait
// stage) once. Only the batcher goroutine writes it; the batches
// channel send orders the write before any instance read.
func stampRecv(p *pending) *pending {
	if p != nil && p.recvAt.IsZero() {
		p.recvAt = time.Now()
	}
	return p
}

// enqueue places an admitted request into its tenant's sub-queue in
// the class lane and wakes the batcher. It cannot fail: admit()
// bounds lane occupancy, and the lanes are unbounded deques.
func (rt *modelRuntime) enqueue(p *pending) {
	rt.qmu.Lock()
	rt.lanes[p.class].push(p)
	rt.qmu.Unlock()
	select {
	case rt.notify <- struct{}{}:
	default:
	}
}

// poll takes the next queued request without blocking, preferring
// higher-priority lanes. Under backlog this is how realtime work
// overtakes online and offline work — except every AntiStarveEvery-th
// pop, which prefers the lowest lane so sustained realtime load cannot
// starve offline work forever. Within a lane, tenants are served by
// deficit round-robin.
func (rt *modelRuntime) poll() *pending {
	rt.qmu.Lock()
	every := rt.cfg.AntiStarveEvery
	reversed := every > 0 && rt.polls%uint64(every) == uint64(every-1)
	var p *pending
	for i := range laneOrder {
		c := laneOrder[i]
		if reversed {
			c = laneOrder[len(laneOrder)-1-i]
		}
		if p = rt.lanes[c].pop(); p != nil {
			rt.polls++
			break
		}
	}
	rt.qmu.Unlock()
	return stampRecv(p)
}

// recv blocks for the next queued request. Returns nil when the
// runtime starts closing. Safe because the batcher is the lanes' only
// consumer: a producer that enqueues between the failed poll and the
// select has already made a notify send (buffered, never dropped), so
// the wakeup cannot be lost.
func (rt *modelRuntime) recv() *pending {
	for {
		if p := rt.poll(); p != nil {
			return p
		}
		select {
		case <-rt.notify:
		case <-rt.closing:
			return nil
		}
	}
}

// release returns a pending's admission slot and tenant occupancy,
// exactly once per pending, when it leaves the queue for any reason
// (dispatch, eviction, shutdown).
func (rt *modelRuntime) release(p *pending) {
	rt.inflight.Add(-1)
	if p.ts != nil {
		p.ts.queuedReqs.Add(-1)
		p.ts.queuedItems.Add(int64(-itemsOf(p)))
	}
}

// backlogItemsAtOrAbove sums the queued items a new submission of the
// given class would wait behind: its own lane plus every
// higher-priority lane. This is the lane-aware backlog behind
// Retry-After hints — an offline flood must not inflate a realtime
// caller's backoff.
func (rt *modelRuntime) backlogItemsAtOrAbove(class Class) int64 {
	rt.qmu.Lock()
	defer rt.qmu.Unlock()
	var items int64
	for _, c := range laneOrder {
		items += int64(rt.lanes[c].items)
		if c == class {
			break
		}
	}
	return items
}

// dispatch claims the batch's pendings and hands the survivors to an
// instance. Requests cancelled while queued, and requests whose
// deadline can no longer be met even if executed right now, are
// evicted here — they never occupy a dispatched batch slot. Returns
// false when the send was aborted by the drain deadline (the claimed
// survivors are failed).
func (rt *modelRuntime) dispatch(batches chan<- []*pending, batch []*pending) bool {
	items := 0
	for _, p := range batch {
		items += p.req.Items
	}
	// The expiry horizon: a request whose remaining slack is below the
	// modeled execution time of this batch is a guaranteed SLO miss.
	est := rt.estimatedExecDuration(items)
	horizon := time.Now().Add(est)
	live := batch[:0]
	for _, p := range batch {
		rt.release(p)
		if !p.claim() {
			rt.met.cancelled.Inc()
			continue
		}
		if !p.deadline.IsZero() && horizon.After(p.deadline) {
			rt.met.expired.Inc()
			if p.ts != nil {
				p.ts.expired.Inc()
			}
			p.err <- fmt.Errorf("%w: model %s, batch of %d", ErrDeadlineExpired, rt.cfg.Name, items)
			continue
		}
		live = append(live, p)
	}
	if len(live) == 0 {
		return true
	}
	select {
	case batches <- live:
		return true
	case <-rt.abort:
		for _, p := range live {
			rt.met.errors.Inc()
			p.err <- ErrServerClosed
		}
		return false
	}
}

// fireAt returns when the forming batch should be dispatched: at the
// end of the batching window, or earlier so that the batch's earliest
// deadline can still be met after the estimated execution time.
func (rt *modelRuntime) fireAt(windowEnd, earliest time.Time, items int) time.Time {
	at := windowEnd
	if !earliest.IsZero() {
		latest := earliest.Add(-rt.estimatedExecDuration(items))
		if latest.Before(at) {
			at = latest
		}
	}
	return at
}

// earlier folds a pending's deadline into the running earliest.
func earlier(earliest time.Time, p *pending) time.Time {
	if p.deadline.IsZero() {
		return earliest
	}
	if earliest.IsZero() || p.deadline.Before(earliest) {
		return p.deadline
	}
	return earliest
}

// batcherLoop implements deadline-aware dynamic batching: it fuses
// queued requests (highest-priority lane first) until the fused batch
// reaches MaxBatch items, QueueDelay elapses since the first request,
// or waiting any longer would make the batch's earliest deadline
// unmeetable. Tensor-carrying and items-only requests are never fused
// into the same batch (see hasInputs).
func (rt *modelRuntime) batcherLoop(batches chan<- []*pending) {
	defer close(batches)
	timer := time.NewTimer(time.Hour)
	if !timer.Stop() {
		<-timer.C
	}
	defer timer.Stop()
	// stopTimer quiesces the window timer, draining a pending fire.
	armed := false
	stopTimer := func() {
		if armed && !timer.Stop() {
			<-timer.C
		}
		armed = false
	}
	for {
		first := rt.recv()
		if first == nil {
			rt.drainQueue(batches)
			return
		}
		batch := []*pending{first}
		items := first.req.Items
		real := hasInputs(first)
		earliest := earlier(time.Time{}, first)
		windowEnd := time.Now().Add(rt.cfg.QueueDelay)
		at := rt.fireAt(windowEnd, earliest, items)
		timer.Reset(time.Until(at))
		armed = true
	fill:
		for items < rt.cfg.MaxBatch {
			p := rt.poll()
			if p == nil {
				select {
				case <-rt.notify:
					// New work enqueued; re-poll through the DRR lanes.
					continue
				case <-timer.C:
					armed = false
					break fill
				case <-rt.closing:
					// Shutdown: dispatch what we have immediately.
					break fill
				}
			}
			if items+p.req.Items > rt.cfg.MaxBatch || hasInputs(p) != real {
				// Dispatch current batch; start the next with p.
				stopTimer()
				if !rt.dispatch(batches, batch) {
					rt.failPending(p)
					rt.drainQueue(batches)
					return
				}
				batch = []*pending{p}
				items = p.req.Items
				real = hasInputs(p)
				earliest = earlier(time.Time{}, p)
				windowEnd = time.Now().Add(rt.cfg.QueueDelay)
				at = rt.fireAt(windowEnd, earliest, items)
				timer.Reset(time.Until(at))
				armed = true
				continue
			}
			batch = append(batch, p)
			items += p.req.Items
			// Growth can only move the dispatch point earlier: a larger
			// batch executes longer, and a new earliest deadline leaves
			// less slack.
			earliest = earlier(earliest, p)
			if next := rt.fireAt(windowEnd, earliest, items); next.Before(at) {
				stopTimer()
				at = next
				timer.Reset(time.Until(at))
				armed = true
			}
		}
		stopTimer()
		if !rt.dispatch(batches, batch) {
			rt.drainQueue(batches)
			return
		}
	}
}

// drainQueue is the graceful-shutdown path: it keeps fusing and
// dispatching whatever is already queued (so queued work is served,
// not failed) until the lanes are empty or the drain deadline aborts.
func (rt *modelRuntime) drainQueue(batches chan<- []*pending) {
	for {
		select {
		case <-rt.abort:
			rt.failQueued()
			return
		default:
		}
		var batch []*pending
		items := 0
		real := false
		for items < rt.cfg.MaxBatch {
			p := rt.poll()
			if p == nil {
				break
			}
			if batch != nil && (items+p.req.Items > rt.cfg.MaxBatch || hasInputs(p) != real) {
				if !rt.dispatch(batches, batch) {
					rt.failPending(p)
					rt.failQueued()
					return
				}
				batch = nil
				items = 0
			}
			if batch == nil {
				real = hasInputs(p)
			}
			batch = append(batch, p)
			items += p.req.Items
		}
		if batch == nil {
			return
		}
		if !rt.dispatch(batches, batch) {
			rt.failQueued()
			return
		}
	}
}

// failQueued fails everything still sitting in the lanes.
func (rt *modelRuntime) failQueued() {
	for {
		p := rt.poll()
		if p == nil {
			return
		}
		rt.failPending(p)
	}
}

// failPending fails one undispatched pending (unless it was already
// cancelled by its submitter).
func (rt *modelRuntime) failPending(p *pending) {
	rt.release(p)
	if p.claim() {
		rt.met.errors.Inc()
		p.err <- ErrServerClosed
	} else {
		rt.met.cancelled.Inc()
	}
}

// instanceLoop executes fused batches on one engine instance. track is
// the instance's trace track name.
func (rt *modelRuntime) instanceLoop(batches <-chan []*pending, track string) {
	for batch := range batches {
		rt.runBatch(batch, track)
	}
}

// evictExpired drops batch members whose remaining slack no longer
// covers the batch's modeled execution time. dispatch performs the same
// check, but a dispatched batch can still wait behind earlier batches
// for a free instance; re-checking at execution start is what turns "a
// served response met its deadline" from a dispatch-time approximation
// into a guarantee.
func (rt *modelRuntime) evictExpired(batch []*pending) []*pending {
	items := 0
	for _, p := range batch {
		items += p.req.Items
	}
	horizon := time.Now().Add(rt.estimatedExecDuration(items))
	live := batch[:0]
	for _, p := range batch {
		if !p.deadline.IsZero() && horizon.After(p.deadline) {
			rt.met.expired.Inc()
			if p.ts != nil {
				p.ts.expired.Inc()
			}
			p.err <- fmt.Errorf("%w: model %s, evicted at execution start", ErrDeadlineExpired, rt.cfg.Name)
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
	track := "req:" + p.req.ID
	add := func(name string, from, to time.Time) {
		d := stageDur(from, to)
		start := sinceEpoch(to) - d
		if start < 0 {
			start = 0
		}
		rt.cfg.Trace.Add(trace.Span{
			Name: name, Track: track, Start: start, Duration: d,
			Args: map[string]any{"model": rt.cfg.Name, "class": p.class.String(), "tenant": p.tenant},
		})
	}
	add("admit", p.submitAt, p.admitted)
	if p.preprocSec > 0 {
		add("preprocess", p.admitted, p.enqueued)
	}
	add("queue", p.enqueued, p.recvAt)
	add("batch-assembly", p.recvAt, execStart)
	rt.cfg.Trace.Add(trace.Span{
		Name: "compute", Track: track,
		Start:    sinceEpoch(execStart),
		Duration: stageDur(execStart, execEnd),
		Args: map[string]any{
			"model": rt.cfg.Name, "class": p.class.String(),
			"tenant":      p.tenant,
			"batch_items": batchItems,
		},
	})
}

func (rt *modelRuntime) runBatch(batch []*pending, track string) {
	if batch = rt.evictExpired(batch); len(batch) == 0 {
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
			p.err <- fmt.Errorf("serve: model %s: %w", rt.cfg.Name, err)
			continue
		}
		queueSec := execStart.Sub(p.enqueued).Seconds()
		if queueSec < 0 {
			queueSec = 0
		}
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
		if p.ts != nil {
			p.ts.requests.Inc()
			p.ts.items.Add(int64(p.req.Items))
			p.ts.queueLat.Observe(queueSec)
		}
		p.done <- resp
	}
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
func (s *Server) Submit(ctx context.Context, req *Request) (*Response, error) {
	submitAt := time.Now()
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
	s.mu.Lock()
	rt, ok := s.models[req.Model]
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return nil, ErrServerClosed
	}
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownModel, req.Model)
	}
	if req.Items > rt.cfg.MaxBatch {
		return nil, fmt.Errorf("%w: %d > %d", ErrTooManyItems, req.Items, rt.cfg.MaxBatch)
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
	select {
	case <-rt.closing:
		return nil, ErrServerClosed
	default:
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ts := rt.tenantState(tenant)
	deadline := rt.resolveDeadline(ctx, req)
	if !deadline.IsZero() && !time.Now().Before(deadline) {
		// Dead on arrival: shed without occupying a queue slot.
		rt.met.expired.Inc()
		ts.expired.Inc()
		return nil, fmt.Errorf("%w: model %s, expired on submit", ErrDeadlineExpired, rt.cfg.Name)
	}
	// Tenant quotas gate before the shared queue: an over-quota tenant
	// burns its own 429 budget without having touched a queue slot.
	if err := rt.checkQuota(ts, tenant, req.Items); err != nil {
		rt.met.shed.Inc()
		ts.shed.Inc()
		return nil, err
	}
	if !rt.admit() {
		rt.met.shed.Inc()
		ts.shed.Inc()
		return nil, fmt.Errorf("%w: model %s, queue depth %d", ErrOverloaded, rt.cfg.Name, rt.cfg.MaxQueueDepth)
	}
	ts.queuedReqs.Add(1)
	ts.queuedItems.Add(int64(req.Items))
	admitted := time.Now()
	preprocSec := 0.0
	if len(req.Images) > 0 {
		// The preprocess stage runs on the submitter's goroutine between
		// admission and lane enqueue: admission control bounds how many
		// requests can be decoding at once, and the engine's worker pool
		// bounds the CPU they use. The resulting tensors ride the normal
		// tensor path from here on.
		items := make([]preprocess.Item, len(req.Images))
		for i, img := range req.Images {
			items[i] = preprocess.Item{Encoded: img, Format: req.ImageFormat}
		}
		res, err := rt.cfg.Preproc.ProcessBatch(items)
		if err == nil && len(res.Tensors) != len(items) {
			err = fmt.Errorf("preprocessor %s returned no tensors", rt.cfg.Preproc.Name())
		}
		if err != nil {
			rt.inflight.Add(-1)
			ts.queuedReqs.Add(-1)
			ts.queuedItems.Add(int64(-req.Items))
			rt.met.errors.Inc()
			return nil, fmt.Errorf("%w: model %s: %v", ErrPreprocess, rt.cfg.Name, err)
		}
		req.Inputs = res.Tensors
		preprocSec = time.Since(admitted).Seconds()
		rt.met.preprocLat.Observe(preprocSec)
	}
	p := &pending{
		req:        req,
		class:      req.Class,
		tenant:     tenant,
		ts:         ts,
		deadline:   deadline,
		submitAt:   submitAt,
		admitted:   admitted,
		preprocSec: preprocSec,
		enqueued:   time.Now(),
		done:       make(chan *Response, 1),
		err:        make(chan error, 1),
	}
	rt.enqueue(p)
	// Once enqueued, the request is guaranteed an outcome: the batcher
	// either claims it (response, shed, or backend error arrives) or
	// the shutdown path fails it. Queued work is drained, not
	// abandoned, so shutdown-in-progress is not a wait condition; only
	// a fully drained runtime (the enqueue raced past the batcher's
	// exit) is.
	select {
	case resp := <-p.done:
		return resp, nil
	case err := <-p.err:
		return nil, err
	case <-ctx.Done():
		if p.cancel() {
			// Withdrawn before dispatch; the batcher will evict it.
			return nil, ctx.Err()
		}
		// A batch already claimed it; its outcome is imminent.
		select {
		case resp := <-p.done:
			return resp, nil
		case err := <-p.err:
			return nil, err
		}
	case <-rt.drained:
		if p.claim() {
			rt.release(p)
			return nil, ErrServerClosed
		}
		select {
		case resp := <-p.done:
			return resp, nil
		case err := <-p.err:
			return nil, err
		}
	}
}

// Models lists registered model names.
func (s *Server) Models() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.models))
	for name := range s.models {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// ModelConfigFor returns the configuration of a registered model.
func (s *Server) ModelConfigFor(name string) (ModelConfig, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rt, ok := s.models[name]
	if !ok {
		return ModelConfig{}, fmt.Errorf("%w: %q", ErrUnknownModel, name)
	}
	return rt.cfg, nil
}

// StatsFor returns activity counters for a model, derived from its
// metrics snapshot.
func (s *Server) StatsFor(name string) (StatsJSON, error) {
	s.mu.Lock()
	rt, ok := s.models[name]
	s.mu.Unlock()
	if !ok {
		return StatsJSON{}, fmt.Errorf("%w: %q", ErrUnknownModel, name)
	}
	m := rt.snapshot()
	st := StatsJSON{Model: name, Requests: m.Requests, ItemsServed: m.Items, BatchesRun: m.Batches}
	if st.BatchesRun > 0 {
		st.MeanBatchFill = float64(st.ItemsServed) / float64(st.BatchesRun) / float64(rt.cfg.MaxBatch)
	}
	return st, nil
}

// QueueDepth returns a model's current admission-queue depth: requests
// admitted but not yet dispatched to an instance. This is the pressure
// signal the streaming offload policy watches.
func (s *Server) QueueDepth(name string) (int64, error) {
	s.mu.Lock()
	rt, ok := s.models[name]
	s.mu.Unlock()
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrUnknownModel, name)
	}
	return rt.inflight.Load(), nil
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
// time. It deliberately over-counts batches already executing as still
// queued — for a drop-stale admission gate, a slightly pessimistic
// estimate sheds a frame a touch early rather than queueing one that
// will blow its deadline.
func (s *Server) EstimateWait(name string, items int) (time.Duration, error) {
	s.mu.Lock()
	rt, ok := s.models[name]
	s.mu.Unlock()
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrUnknownModel, name)
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
	wait := time.Duration(rounds-1)*rt.estimatedExecDuration(rt.cfg.MaxBatch) +
		rt.estimatedExecDuration(int(tail))
	// The batching window delays dispatch of a non-full batch once.
	return rt.cfg.QueueDelay + wait, nil
}

// MetricsFor returns a metrics snapshot for one model.
func (s *Server) MetricsFor(name string) (ModelMetricsJSON, error) {
	s.mu.Lock()
	rt, ok := s.models[name]
	s.mu.Unlock()
	if !ok {
		return ModelMetricsJSON{}, fmt.Errorf("%w: %q", ErrUnknownModel, name)
	}
	return rt.snapshot(), nil
}

// Metrics returns metrics snapshots for all models, sorted by name.
func (s *Server) Metrics() []ModelMetricsJSON {
	s.mu.Lock()
	rts := make([]*modelRuntime, 0, len(s.models))
	for _, rt := range s.models {
		rts = append(rts, rt)
	}
	s.mu.Unlock()
	out := make([]ModelMetricsJSON, 0, len(rts))
	for _, rt := range rts {
		out = append(out, rt.snapshot())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Model < out[j].Model })
	return out
}

// snapshot fills the model's wire metrics from the live counters and
// recorders. Snapshots are eventually consistent.
func (rt *modelRuntime) snapshot() ModelMetricsJSON {
	m := ModelMetricsJSON{
		Model:        rt.cfg.Name,
		Requests:     rt.met.requests.Load(),
		Items:        rt.met.items.Load(),
		Batches:      rt.met.batches.Load(),
		Errors:       rt.met.errors.Load(),
		Cancelled:    rt.met.cancelled.Load(),
		Shed:         rt.met.shed.Load(),
		Expired:      rt.met.expired.Load(),
		QueueDepth:   rt.inflight.Load(),
		QueueMs:      LatencySummary(rt.met.queueLat.Snapshot()),
		ComputeMs:    LatencySummary(rt.met.computeLat.Snapshot()),
		PreprocessMs: LatencySummary(rt.met.preprocLat.Snapshot()),
		Tenants:      rt.tenantMetrics(),
	}
	for c := Class(0); c < numClasses; c++ {
		if rt.met.classQueueLat[c].Count() == 0 {
			continue
		}
		if m.QueueMsByClass == nil {
			m.QueueMsByClass = make(map[string]LatencySummaryJSON, int(numClasses))
		}
		m.QueueMsByClass[c.String()] = LatencySummary(rt.met.classQueueLat[c].Snapshot())
	}
	return m
}

// Close stops the server gracefully: new submissions are rejected,
// requests already queued are dispatched and served within each
// model's DrainTimeout, and only stragglers past the deadline are
// failed with ErrServerClosed. Close blocks until every batcher and
// instance goroutine has exited.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	rts := make([]*modelRuntime, 0, len(s.models))
	for _, rt := range s.models {
		rts = append(rts, rt)
	}
	s.mu.Unlock()
	// Start every model's drain concurrently, then wait on each.
	for _, rt := range rts {
		close(rt.closing)
	}
	var wg sync.WaitGroup
	for _, rt := range rts {
		wg.Add(1)
		go func(rt *modelRuntime) {
			defer wg.Done()
			rt.shutdown()
		}(rt)
	}
	wg.Wait()
}

// shutdown waits for the runtime's goroutines to drain queued work,
// aborting the drain if it outlives the configured timeout.
func (rt *modelRuntime) shutdown() {
	done := make(chan struct{})
	go func() {
		rt.wg.Wait()
		close(done)
	}()
	grace := rt.cfg.DrainTimeout
	if grace < 0 {
		grace = 0
	}
	select {
	case <-done:
	case <-time.After(grace):
		close(rt.abort)
		<-done
	}
	// Fail anything that slipped into the lanes after the batcher
	// exited; submitters racing Close also observe rt.closing, and
	// anything enqueued after this final sweep is claimed by its own
	// submitter via rt.drained.
	rt.failQueued()
	close(rt.drained)
}
