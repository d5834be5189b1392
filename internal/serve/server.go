// Package serve implements the HARVEST backend request orchestration
// layer — the NVIDIA Triton Server analogue of paper §3: a model
// repository hosting per-model engine instances behind dynamic
// batchers, with a decoupled frontend (in-process API here, HTTP in
// http.go) that transmits input data and generates backend requests.
//
// A request crosses three layers, one file each: admission.go
// (validation, deadline, quota, the queue slot, and the wait estimates
// that price the queue), scheduler.go (which queued requests form the
// next batch, and when it is due) and executor.go (running a batch and
// accounting for it). This file holds the types they share, model
// registration, lookups and shutdown.
package serve

import (
	"errors"
	"fmt"
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
	// ErrBadInput rejects a tensor of the wrong length, or holding a NaN
	// or an infinity, for a model with a real backend.
	ErrBadInput      = errors.New("serve: malformed input tensor")
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
	// LaneSeconds is the lane wait: enqueue to batcher pickup, which
	// includes waiting for a free instance.
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
	// QueueDelay is the dynamic batching window: how long a partial
	// batch may wait for more requests, counted from its oldest
	// member's arrival, once an instance is free to run it. 0 (no
	// window) starts a lone request on an idle instance at once;
	// requests that arrive while every instance is busy still run
	// together in the next batch. The window closes early when the
	// oldest deadline in the forming batch would otherwise be missed.
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
	// enqueue, on the submitter's goroutine. Must be safe for concurrent
	// ProcessBatch calls, as a preprocess.CPUEngine is. For models with
	// a real backend its OutRes must equal InputSize.
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
	// req is the server's own copy of the request; once preprocessed,
	// Inputs holds the tensors and Images is nil.
	req      Request
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
	// recvAt is the scheduler pickup time, stamped under qmu when the
	// request leaves its lane; the send on the batches channel orders it
	// before any instance read.
	recvAt time.Time
	state  atomic.Int32
	// out delivers the request's one outcome. Buffered, so whoever
	// holds the claim never blocks on a submitter that has gone away.
	out chan outcome
}

// outcome is how a claimed request ends: a response or an error.
type outcome struct {
	resp *Response
	err  error
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
	// qmu guards sched: submitters push under it, the batcher calls
	// next under it.
	qmu   sync.Mutex
	sched *scheduler
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
	queued   atomic.Int64 // the items of those requests
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
	rt.sched = newScheduler(&rt.cfg)
	s.models[cfg.Name] = rt

	// The batcher sends only to a free instance, so one slot per
	// instance never blocks it, and idle holds every token at once.
	batches := make(chan []*pending, cfg.Instances)
	idle := make(chan struct{}, cfg.Instances)
	rt.wg.Add(1)
	go func() {
		defer rt.wg.Done()
		rt.batcherLoop(batches, idle)
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
			rt.instanceLoop(batches, idle, track)
		}()
	}
	return nil
}

// Models lists registered model names.
func (s *Server) Models() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return sortedKeys(s.models)
}

// runtime looks a registered model up by name.
func (s *Server) runtime(name string) (*modelRuntime, error) {
	s.mu.Lock()
	rt, ok := s.models[name]
	s.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownModel, name)
	}
	return rt, nil
}

// ModelConfigFor returns the configuration of a registered model.
func (s *Server) ModelConfigFor(name string) (ModelConfig, error) {
	rt, err := s.runtime(name)
	if err != nil {
		return ModelConfig{}, err
	}
	return rt.cfg, nil
}

// QueueDepth returns a model's current admission-queue depth: requests
// admitted but not yet dispatched to an instance. This is the pressure
// signal the streaming offload policy watches.
func (s *Server) QueueDepth(name string) (int64, error) {
	rt, err := s.runtime(name)
	if err != nil {
		return 0, err
	}
	return rt.inflight.Load(), nil
}

// MetricsFor returns a metrics snapshot for one model.
func (s *Server) MetricsFor(name string) (ModelMetricsJSON, error) {
	rt, err := s.runtime(name)
	if err != nil {
		return ModelMetricsJSON{}, err
	}
	return rt.snapshot(), nil
}

// runtimes lists every registered model's runtime, sorted by name.
func (s *Server) runtimes() []*modelRuntime {
	s.mu.Lock()
	defer s.mu.Unlock()
	rts := make([]*modelRuntime, 0, len(s.models))
	for _, name := range sortedKeys(s.models) {
		rts = append(rts, s.models[name])
	}
	return rts
}

// Metrics returns metrics snapshots for all models, sorted by name.
func (s *Server) Metrics() []ModelMetricsJSON {
	rts := s.runtimes()
	out := make([]ModelMetricsJSON, len(rts))
	for i, rt := range rts {
		out[i] = rt.snapshot()
	}
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
	s.mu.Unlock()
	rts := s.runtimes()
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

// waitGrace waits for wg for up to grace (negative means none). It
// returns a channel closed once wg is done, and whether that happened
// in time.
func waitGrace(wg *sync.WaitGroup, grace time.Duration) (<-chan struct{}, bool) {
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return done, true
	case <-time.After(max(grace, 0)):
		return done, false
	}
}

// shutdown waits for the runtime's goroutines to drain queued work,
// aborting the drain if it outlives the configured timeout.
func (rt *modelRuntime) shutdown() {
	if done, ok := waitGrace(&rt.wg, rt.cfg.DrainTimeout); !ok {
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
