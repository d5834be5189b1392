// Package stream implements the continuum's streaming-camera workload
// shape: long-lived per-camera ingest sessions over chunked HTTP, the
// first path beyond single-shot classification. A session enforces
// per-stream frame ordering, drops frames whose deadline can no longer
// be met *at admission* (paper §2.2: a 60 FPS camera's stale frame is
// worthless — dropping beats queueing), answers near-identical
// consecutive frames from a perceptual-hash dedup cache, and — via
// OffloadPolicy — ships frames from a pressured edge replica to cloud
// replicas over a transfer.Link-modeled uplink.
package stream

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"harvest/internal/imaging"
	"harvest/internal/metrics"
	"harvest/internal/serve"
	"harvest/internal/tensor"
	"harvest/internal/trace"
)

// Frame outcomes, one per ingested frame, reported on the session's
// response stream and counted in the ingest metrics.
const (
	// OutcomeServed: the frame ran inference (edge or cloud).
	OutcomeServed = "served"
	// OutcomeCached: answered from the temporal dedup cache.
	OutcomeCached = "cached"
	// OutcomeDropped: the drop-stale gate shed the frame at admission —
	// its deadline could not be met, so it never occupied a queue or
	// batch slot.
	OutcomeDropped = "frame_dropped"
	// OutcomeRejectedOrder: the frame arrived at or behind the stream's
	// high-water sequence number.
	OutcomeRejectedOrder = "rejected_order"
	// OutcomeFailed: an admitted frame errored (decode failure or a
	// serving-tier error).
	OutcomeFailed = "failed"
)

// Where a served frame ran.
const (
	WhereEdge  = "edge"
	WhereCloud = "cloud"
)

// ErrSessionActive reports a second concurrent session for a camera
// that already has one (HTTP 409 on the wire).
var ErrSessionActive = errors.New("stream: camera session already active")

// Defaults for Config zero values.
const (
	DefaultDedupWindow = 8
	DefaultDedupTTL    = 250 * time.Millisecond
)

// Fixed ingest limits.
const (
	// DefaultDedupMaxHamming is the largest dHash Hamming distance (of
	// 64 bits) still treated as a near-identical frame.
	DefaultDedupMaxHamming = 6
	// DefaultMaxFrameBytes caps one frame's image bytes on the wire: a
	// 4K raw frame with headroom. A header declaring more is refused
	// before any payload byte is read.
	DefaultMaxFrameBytes = 32 << 20
	// maxFrameHeaderBytes bounds one frame's JSON header line.
	maxFrameHeaderBytes = 1 << 10
)

// FramesContentType is the session body's media type: each frame is a
// JSON header line naming the image's byte length, then the raw image.
const FramesContentType = "application/x-harvest-frames"

// Backend is the local (edge) inference tier a session feeds;
// *serve.Server satisfies it. EstimateWait and QueueDepth power the
// drop-stale gate and the offload pressure signal.
type Backend interface {
	Submit(ctx context.Context, req *serve.Request) (*serve.Response, error)
	EstimateWait(model string, items int) (time.Duration, error)
	QueueDepth(model string) (int64, error)
}

// Config configures an Ingest.
type Config struct {
	// Model is the default model frames run against (a session may
	// override per-stream via the model query parameter).
	Model string
	// Local is the edge serving tier.
	Local Backend
	// Budget is each frame's latency budget counted from ingest
	// receipt (default serve.DefaultRealtimeBudget, the 60 FPS SLO).
	Budget time.Duration
	// DedupWindow is how many recent served frames a session remembers
	// for perceptual dedup (default 8; negative disables dedup).
	DedupWindow int
	// DedupTTL expires cache entries: temporal redundancy is only
	// redundancy while the scene is current (default 250ms).
	DedupTTL time.Duration
	// Offload, when non-nil, enables runtime edge→cloud offload.
	Offload *OffloadPolicy
	// Trace receives per-frame and uplink spans (nil disables).
	Trace *trace.Recorder
}

func (c Config) budget() time.Duration {
	if c.Budget > 0 {
		return c.Budget
	}
	return serve.DefaultRealtimeBudget
}

func (c Config) dedupWindow() int {
	if c.DedupWindow == 0 {
		return DefaultDedupWindow
	}
	if c.DedupWindow < 0 {
		return 0
	}
	return c.DedupWindow
}

func (c Config) dedupTTL() time.Duration {
	if c.DedupTTL <= 0 {
		return DefaultDedupTTL
	}
	return c.DedupTTL
}

// ingestMetrics aggregates frame outcomes across all sessions.
type ingestMetrics struct {
	frames        metrics.Counter
	servedEdge    metrics.Counter
	servedCloud   metrics.Counter
	dedupHits     metrics.Counter
	dropped       metrics.Counter
	rejectedOrder metrics.Counter
	failed        metrics.Counter
	// offloaded counts cloud decisions, indexed like offloadReasons.
	offloaded [len(offloadReasons)]metrics.Counter
	// e2e is frame receipt → outcome latency for served/cached frames.
	e2e metrics.LatencyRecorder
	// uplink is the modeled upload cost of cloud-shipped frames.
	uplink metrics.LatencyRecorder
}

// TenantStreamStats is one tenant's share of the ingest tier: how many
// sessions it has opened, and its frame/served volume.
type TenantStreamStats struct {
	Sessions int64 `json:"sessions"`
	Frames   int64 `json:"frames"`
	Served   int64 `json:"served"`
}

// Ingest owns the per-camera sessions and their shared configuration.
type Ingest struct {
	cfg Config

	mu       sync.Mutex
	sessions map[string]*Session
	met      ingestMetrics

	tmu     sync.Mutex
	tenants map[string]TenantStreamStats
}

// tenantAdd folds deltas into one tenant's stream accounting.
func (ing *Ingest) tenantAdd(tenant string, sessions, frames, served int64) {
	if tenant == "" {
		tenant = serve.DefaultTenant
	}
	ing.tmu.Lock()
	st := ing.tenants[tenant]
	st.Sessions += sessions
	st.Frames += frames
	st.Served += served
	ing.tenants[tenant] = st
	ing.tmu.Unlock()
}

// TenantStats snapshots per-tenant stream accounting (nil when no
// tenant has streamed).
func (ing *Ingest) TenantStats() map[string]TenantStreamStats {
	ing.tmu.Lock()
	defer ing.tmu.Unlock()
	if len(ing.tenants) == 0 {
		return nil
	}
	out := make(map[string]TenantStreamStats, len(ing.tenants))
	for k, v := range ing.tenants {
		out[k] = v
	}
	return out
}

// NewIngest creates a streaming ingest tier over the local backend.
func NewIngest(cfg Config) (*Ingest, error) {
	if cfg.Local == nil {
		return nil, errors.New("stream: Config.Local backend required")
	}
	if cfg.Model == "" {
		return nil, errors.New("stream: Config.Model required")
	}
	if _, err := cfg.Local.EstimateWait(cfg.Model, 1); err != nil {
		return nil, fmt.Errorf("stream: local backend does not serve %q: %w", cfg.Model, err)
	}
	return &Ingest{cfg: cfg, sessions: make(map[string]*Session), tenants: make(map[string]TenantStreamStats)}, nil
}

// Open starts the camera's session, enforcing one live session per
// camera ID. The caller must Close the session. tenant is canonicalized
// through serve.ParseTenant ("" maps to the default tenant).
func (ing *Ingest) Open(camera, model, tenant string, budget time.Duration) (*Session, error) {
	if model == "" {
		model = ing.cfg.Model
	}
	if _, err := ing.cfg.Local.EstimateWait(model, 1); err != nil {
		return nil, err
	}
	tenant, err := serve.ParseTenant(tenant)
	if err != nil {
		return nil, err
	}
	if budget <= 0 {
		budget = ing.cfg.budget()
	}
	ing.mu.Lock()
	defer ing.mu.Unlock()
	if _, busy := ing.sessions[camera]; busy {
		return nil, fmt.Errorf("%w: %q", ErrSessionActive, camera)
	}
	s := &Session{
		Camera: camera,
		Model:  model,
		Tenant: tenant,
		Budget: budget,
		ing:    ing,
		cache:  newDedupCache(ing.cfg.dedupWindow()),
	}
	ing.sessions[camera] = s
	ing.tenantAdd(tenant, 1, 0, 0)
	return s, nil
}

// ActiveSessions returns the number of live camera sessions.
func (ing *Ingest) ActiveSessions() int {
	ing.mu.Lock()
	defer ing.mu.Unlock()
	return len(ing.sessions)
}

// Session is one camera's live ingest stream.
type Session struct {
	Camera string
	Model  string
	Tenant string
	Budget time.Duration

	ing *Ingest

	// lastSeq is the stream's high-water sequence number; only the
	// session's reader goroutine moves it, so ordering is enforced in
	// arrival order even though completions are asynchronous.
	lastSeq int64

	mu    sync.Mutex
	cache *dedupCache

	// wg tracks in-flight frame completions.
	wg sync.WaitGroup

	// Per-session outcome counters (atomics: completion goroutines).
	frames        atomic.Int64
	servedEdge    atomic.Int64
	servedCloud   atomic.Int64
	dedupHits     atomic.Int64
	dropped       atomic.Int64
	rejectedOrder atomic.Int64
	failed        atomic.Int64
}

// Frame is one camera frame: a strictly-increasing sequence number and
// an encoded image payload ("" Format means JPEG).
type Frame struct {
	Seq    int64
	Image  []byte
	Format string
}

// Outcome is the per-frame result line.
type Outcome struct {
	Seq     int64  `json:"seq"`
	Outcome string `json:"outcome"`
	// Where reports the serving tier of a served frame: "edge" or
	// "cloud". For a dropped frame it names the tier whose estimate
	// blew the deadline.
	Where string `json:"where,omitempty"`
	// Reason names the signal that sent a cloud-bound frame to the
	// cloud: "queue", "power" or "deadline" (Decision.Reason).
	Reason string `json:"reason,omitempty"`
	// DistanceBits is the dHash Hamming distance to the cache entry
	// that answered a cached frame.
	DistanceBits int `json:"distance_bits,omitempty"`
	// Classification is the argmax class per item, when the serving
	// tier computed outputs.
	Classification []int `json:"classification,omitempty"`
	// E2EMs is frame receipt → outcome.
	E2EMs float64 `json:"e2e_ms,omitempty"`
	// UploadMs is the link-modeled upload cost of a cloud-served frame.
	UploadMs float64 `json:"upload_ms,omitempty"`
	Error    string  `json:"error,omitempty"`
}

// Summary is a session's final accounting, emitted as the last line of
// the response stream.
type Summary struct {
	Camera        string `json:"camera"`
	Tenant        string `json:"tenant,omitempty"`
	Frames        int64  `json:"frames"`
	ServedEdge    int64  `json:"served_edge"`
	ServedCloud   int64  `json:"served_cloud"`
	DedupHits     int64  `json:"dedup_hits"`
	Dropped       int64  `json:"dropped"`
	RejectedOrder int64  `json:"rejected_order"`
	Failed        int64  `json:"failed"`
}

// Summary snapshots the session's counters.
func (s *Session) Summary() Summary {
	return Summary{
		Camera:        s.Camera,
		Tenant:        s.Tenant,
		Frames:        s.frames.Load(),
		ServedEdge:    s.servedEdge.Load(),
		ServedCloud:   s.servedCloud.Load(),
		DedupHits:     s.dedupHits.Load(),
		Dropped:       s.dropped.Load(),
		RejectedOrder: s.rejectedOrder.Load(),
		Failed:        s.failed.Load(),
	}
}

// detach releases the camera ID so a new session can open immediately,
// without waiting for this session's in-flight frames. The ingest HTTP
// handler detaches as soon as the client's request body ends (EOF or a
// mid-stream disconnect): a camera that reconnects must not 409 against
// its own dying session just because an admitted frame is still queued
// behind a saturated serving tier. Idempotent, and a no-op if a newer
// session already took the camera.
func (s *Session) detach() {
	s.ing.mu.Lock()
	if s.ing.sessions[s.Camera] == s {
		delete(s.ing.sessions, s.Camera)
	}
	s.ing.mu.Unlock()
}

// Close releases the camera and waits for in-flight frame completions.
func (s *Session) Close() {
	s.detach()
	s.wg.Wait()
}

// span records a frame-lifecycle span on the session's camera track.
func (s *Session) span(name string, start time.Time, d time.Duration, args map[string]any) {
	rec := s.ing.cfg.Trace
	if rec == nil {
		return
	}
	if args == nil {
		args = map[string]any{}
	}
	args["tenant"] = s.Tenant
	rec.Add(trace.Span{
		Name:     name,
		Track:    "cam:" + s.Camera,
		Start:    float64(start.UnixNano()) / float64(time.Second),
		Duration: d.Seconds(),
		Args:     args,
	})
}

// HandleFrame runs one frame through the session: ordering check,
// decode + perceptual hash, dedup lookup, drop-stale admission gate,
// then asynchronous inference (edge or cloud per the offload policy).
// The synchronous part returns as soon as the frame is admitted (or
// resolved), so a saturated serving tier never stalls the camera's
// read loop; emit is called exactly once per frame, possibly from
// another goroutine, when the outcome is known.
func (s *Session) HandleFrame(ctx context.Context, f Frame, emit func(Outcome)) {
	recv := time.Now()
	s.frames.Add(1)
	s.ing.met.frames.Inc()
	s.ing.tenantAdd(s.Tenant, 0, 1, 0)

	// Per-stream ordering: frames must arrive with strictly increasing
	// sequence numbers. A regressed or duplicated seq is rejected, not
	// reordered — the camera is the clock, and serving an older frame
	// after a newer one inverts time for the consumer.
	if f.Seq <= s.lastSeq {
		s.rejectedOrder.Add(1)
		s.ing.met.rejectedOrder.Inc()
		emit(Outcome{Seq: f.Seq, Outcome: OutcomeRejectedOrder,
			Error: fmt.Sprintf("seq %d not after %d", f.Seq, s.lastSeq)})
		return
	}
	s.lastSeq = f.Seq

	format := imaging.FormatJPEG
	var err error
	if f.Format != "" {
		if format, err = imaging.ParseFormat(f.Format); err != nil {
			s.failed.Add(1)
			s.ing.met.failed.Inc()
			emit(Outcome{Seq: f.Seq, Outcome: OutcomeFailed, Error: err.Error()})
			return
		}
	}
	// A PPM frame is hashed in place: nothing modifies a frame's bytes
	// once it is handed to the session.
	var im *imaging.Image
	if format == imaging.FormatPPM {
		im, err = imaging.DecodePPMZeroCopy(f.Image, nil)
	} else {
		im, err = imaging.DecodeBytes(f.Image, format)
	}
	if err != nil {
		s.failed.Add(1)
		s.ing.met.failed.Inc()
		emit(Outcome{Seq: f.Seq, Outcome: OutcomeFailed, Error: "decode: " + err.Error()})
		return
	}

	// Temporal dedup: a frame perceptually identical to a recently
	// served one is answered from cache — no queue slot, no compute.
	hash := imaging.DHash(im)
	if s.ing.cfg.dedupWindow() > 0 {
		s.mu.Lock()
		entry, dist, hit := s.cache.lookup(hash, recv, s.ing.cfg.dedupTTL(), DefaultDedupMaxHamming)
		s.mu.Unlock()
		if hit {
			s.dedupHits.Add(1)
			s.ing.met.dedupHits.Inc()
			e2e := time.Since(recv)
			s.ing.met.e2e.Observe(e2e.Seconds())
			s.span("frame", recv, e2e, map[string]any{"seq": f.Seq, "outcome": OutcomeCached, "distance": dist})
			emit(Outcome{Seq: f.Seq, Outcome: OutcomeCached, Where: entry.where,
				DistanceBits: dist, Classification: entry.classification,
				E2EMs: float64(e2e) / float64(time.Millisecond)})
			return
		}
	}

	deadline := recv.Add(s.Budget)

	// Offload decision: serve locally until queue/energy/deadline
	// pressure says otherwise.
	estLocal, _ := s.ing.cfg.Local.EstimateWait(s.Model, 1)
	var dec Decision
	if p := s.ing.cfg.Offload; p != nil {
		dec = p.Decide(s.ing.cfg.Local, s.Model, len(f.Image), estLocal, deadline.Sub(recv))
	}

	// Drop-stale admission gate: estimate the chosen tier's completion
	// time; a frame that cannot meet its deadline is dropped *now*,
	// with a counted outcome — it never occupies a queue or batch slot.
	estWait := estLocal
	where := WhereEdge
	if dec.Cloud {
		where = WhereCloud
		estWait = dec.EstWait
		s.ing.met.offloaded[slices.Index(offloadReasons[:], dec.Reason)].Inc()
		toCamera := emit
		emit = func(o Outcome) {
			o.Reason = dec.Reason
			toCamera(o)
		}
	}
	if recv.Add(estWait).After(deadline) {
		s.dropped.Add(1)
		s.ing.met.dropped.Inc()
		s.span("frame", recv, time.Since(recv), map[string]any{
			"seq": f.Seq, "outcome": OutcomeDropped, "where": where,
			"est_wait_ms": float64(estWait) / float64(time.Millisecond)})
		emit(Outcome{Seq: f.Seq, Outcome: OutcomeDropped, Where: where,
			Error: fmt.Sprintf("estimated wait %.1fms exceeds budget %.1fms",
				float64(estWait)/float64(time.Millisecond), float64(s.Budget)/float64(time.Millisecond))})
		return
	}

	// Admitted: complete asynchronously so the read loop keeps
	// draining the camera while this frame is in flight. A frame bound
	// for the cloud is on the radio from here on (see ship).
	if dec.Cloud {
		s.ing.cfg.Offload.uplinkBusy.Add(1)
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		if dec.Cloud {
			s.serveCloud(ctx, f, format, hash, recv, deadline, emit)
			return
		}
		s.serveEdge(ctx, f, format, hash, recv, deadline, emit)
	}()
}

func (s *Session) frameID(seq int64) string {
	return fmt.Sprintf("%s-%d", s.Camera, seq)
}

// serveEdge submits the frame to the local tier.
func (s *Session) serveEdge(ctx context.Context, f Frame, format imaging.Format, hash uint64, recv, deadline time.Time, emit func(Outcome)) {
	resp, err := s.ing.cfg.Local.Submit(ctx, &serve.Request{
		ID:          s.frameID(f.Seq),
		Model:       s.Model,
		Tenant:      s.Tenant,
		Items:       1,
		Images:      [][]byte{f.Image},
		ImageFormat: format,
		Class:       serve.ClassRealtime,
		Deadline:    deadline,
	})
	if err != nil {
		s.fail(f.Seq, recv, WhereEdge, err, emit)
		return
	}
	var class []int
	if len(resp.Outputs) == 1 {
		class = []int{tensor.ArgMax(resp.Outputs[0])}
	}
	if p := s.ing.cfg.Offload; p != nil {
		p.noteEdgeCompute(resp.ComputeSeconds)
	}
	s.served(f.Seq, recv, WhereEdge, hash, class, 0, emit)
}

// serveCloud ships the frame over the modeled uplink to the cloud tier.
func (s *Session) serveCloud(ctx context.Context, f Frame, format imaging.Format, hash uint64, recv, deadline time.Time, emit func(Outcome)) {
	p := s.ing.cfg.Offload
	out, uploadSec, err := p.ship(ctx, s.frameID(f.Seq), s.Model, s.Tenant, f, format, deadline)
	if uploadSec > 0 {
		s.ing.met.uplink.Observe(uploadSec)
		s.span("uplink", recv, time.Duration(uploadSec*float64(time.Second)), map[string]any{
			"seq": f.Seq, "link": p.Link.Name, "bytes": len(f.Image),
			"messages": p.messages(len(f.Image))})
	}
	if err != nil {
		s.fail(f.Seq, recv, WhereCloud, err, emit)
		return
	}
	s.served(f.Seq, recv, WhereCloud, hash, out.Classification, uploadSec, emit)
}

// served records a successful frame and populates the dedup cache.
func (s *Session) served(seq int64, recv time.Time, where string, hash uint64, class []int, uploadSec float64, emit func(Outcome)) {
	if where == WhereCloud {
		s.servedCloud.Add(1)
		s.ing.met.servedCloud.Inc()
	} else {
		s.servedEdge.Add(1)
		s.ing.met.servedEdge.Inc()
	}
	s.ing.tenantAdd(s.Tenant, 0, 0, 1)
	if s.ing.cfg.dedupWindow() > 0 {
		s.mu.Lock()
		s.cache.insert(hash, class, where, time.Now())
		s.mu.Unlock()
	}
	e2e := time.Since(recv)
	s.ing.met.e2e.Observe(e2e.Seconds())
	s.span("frame", recv, e2e, map[string]any{"seq": seq, "outcome": OutcomeServed, "where": where})
	emit(Outcome{Seq: seq, Outcome: OutcomeServed, Where: where, Classification: class,
		E2EMs:    float64(e2e) / float64(time.Millisecond),
		UploadMs: uploadSec * 1000})
}

func (s *Session) fail(seq int64, recv time.Time, where string, err error, emit func(Outcome)) {
	s.failed.Add(1)
	s.ing.met.failed.Inc()
	s.span("frame", recv, time.Since(recv), map[string]any{"seq": seq, "outcome": OutcomeFailed, "where": where})
	emit(Outcome{Seq: seq, Outcome: OutcomeFailed, Where: where, Error: err.Error()})
}

// dedupEntry is one remembered served frame.
type dedupEntry struct {
	hash           uint64
	classification []int
	where          string
	at             time.Time
}

// dedupCache is a fixed-window ring of recent served frames, searched
// by Hamming distance. Window sizes are single digits, so linear scan
// beats any index.
type dedupCache struct {
	entries []dedupEntry
	next    int
}

func newDedupCache(window int) *dedupCache {
	return &dedupCache{entries: make([]dedupEntry, 0, window)}
}

func (c *dedupCache) lookup(hash uint64, now time.Time, ttl time.Duration, maxDist int) (dedupEntry, int, bool) {
	bestDist := maxDist + 1
	var best dedupEntry
	for _, e := range c.entries {
		if now.Sub(e.at) > ttl {
			continue
		}
		if d := imaging.HammingDistance64(hash, e.hash); d < bestDist {
			bestDist = d
			best = e
		}
	}
	if bestDist <= maxDist {
		return best, bestDist, true
	}
	return dedupEntry{}, 0, false
}

func (c *dedupCache) insert(hash uint64, class []int, where string, at time.Time) {
	e := dedupEntry{hash: hash, classification: class, where: where, at: at}
	if cap(c.entries) == 0 {
		return
	}
	if len(c.entries) < cap(c.entries) {
		c.entries = append(c.entries, e)
		return
	}
	c.entries[c.next] = e
	c.next = (c.next + 1) % len(c.entries)
}
