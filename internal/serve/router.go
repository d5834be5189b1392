// Replica-pool router: the horizontal scale-out tier of the serving
// stack. A Router fronts multiple harvest-serve backends behind the
// same /v2/* surface a single Server exposes, so serve.Client works
// unchanged against either. Placement is queue-depth-aware and
// scenario-class-aware (pool.go), failed replicas are ejected and
// recovered via half-open probes, and in-flight requests fail over to
// the surviving replicas — the real counterpart of the least-loaded
// dispatcher pipeline.RunReplicas models.
package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"maps"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"harvest/internal/metrics"
	"harvest/internal/trace"
)

// ErrNoReplicas means every replica was tried (or none exists) and the
// request could not be placed.
var ErrNoReplicas = errors.New("serve: no replica available")

// routerBodyLimit caps an infer body at the router when
// RouterConfig.MaxBodyBytes is zero. The router knows no model's shapes
// or limits; replicas enforce those, this bounds memory per connection.
const routerBodyLimit = 64 << 20

// RouterConfig configures a replica-pool router.
type RouterConfig struct {
	// Pool configures health checking and ejection.
	Pool PoolConfig
	// MaxBodyBytes caps an infer request body at the router, framed or
	// plain JSON (where images_b64 takes 4/3 of the frame). Raise it for
	// batches of uncompressed 4K ground-camera frames. 0 means
	// routerBodyLimit (64 MiB); negative disables the cap.
	MaxBodyBytes int64
	// DrainTimeout bounds Close's wait for proxied requests still in
	// flight. 0 means DefaultDrainTimeout; negative means no grace.
	DrainTimeout time.Duration
	// TraceCapacity bounds the router's trace ring buffer (spans
	// retained for GET /v2/trace). 0 means DefaultTraceCapacity;
	// negative disables tracing.
	TraceCapacity int
	// TenantQuotas optionally enforces per-tenant admission rates at
	// the router itself, before any replica is tried. Rates here are
	// fleet-aggregate (per-replica rate × replica count, typically),
	// with exact/"*"-wildcard resolution like replica quotas. A request
	// rejected here costs one token-bucket check and no proxy hop —
	// under an abusive tenant, letting every reject travel
	// router→replica→spill→replica turns the 429 budget into pool-wide
	// churn that inflates innocent tenants' tails. MaxQueueShare is
	// ignored at this tier (the router has no queue view); replicas
	// remain the authoritative enforcement point for share and for
	// rate when no router quota is set.
	TenantQuotas map[string]TenantQuota
}

// DefaultTraceCapacity is the trace ring-buffer size used when a
// router or deployment does not configure one.
const DefaultTraceCapacity = 4096

// routerMetrics is router-level observability, on top of the
// aggregated per-replica model metrics.
type routerMetrics struct {
	requests  metrics.Counter // proxied requests answered successfully
	errors    metrics.Counter // proxied requests that ultimately failed
	failovers metrics.Counter // replica faults that moved a request to another replica
	spills    metrics.Counter // 429 rejections that moved a request to another replica
	quotaShed metrics.Counter // requests refused by the router-level tenant quota
	streams   metrics.Counter // camera ingest streams proxied to a replica
	latency   metrics.LatencyRecorder
}

// Router load-balances inference across a health-checked replica pool.
type Router struct {
	cfg   RouterConfig
	pool  *Pool
	trace *trace.Recorder // ring buffer of routing spans; nil = disabled

	mu       sync.Mutex
	closed   bool
	inflight sync.WaitGroup

	met routerMetrics

	tmu        sync.Mutex
	tenantReqs map[string]int64 // successfully routed requests per tenant
	tenantShed map[string]int64 // router-quota rejections per tenant

	qmu         sync.Mutex
	quotaStates map[string]*tokenBucket // router-level token buckets, by tenant
}

// NewRouter builds a router over the given replica base URLs and
// starts the pool's health loops.
func NewRouter(urls []string, cfg RouterConfig) (*Router, error) {
	pool, err := NewPool(urls, cfg.Pool)
	if err != nil {
		return nil, err
	}
	return newRouter(pool, cfg), nil
}

// NewDynamicRouter builds a router over an initially empty pool whose
// membership is managed at runtime — the fleet control plane's shape,
// where replicas register leases instead of being listed up front.
// Until the first replica registers, requests fail with ErrNoReplicas
// and readiness reports 503.
func NewDynamicRouter(cfg RouterConfig) *Router {
	return newRouter(NewDynamicPool(cfg.Pool), cfg)
}

func newRouter(pool *Pool, cfg RouterConfig) *Router {
	if cfg.MaxBodyBytes == 0 {
		cfg.MaxBodyBytes = routerBodyLimit
	}
	if cfg.DrainTimeout == 0 {
		cfg.DrainTimeout = DefaultDrainTimeout
	}
	if cfg.TraceCapacity == 0 {
		cfg.TraceCapacity = DefaultTraceCapacity
	}
	r := &Router{cfg: cfg, pool: pool,
		tenantReqs: map[string]int64{}, tenantShed: map[string]int64{}}
	if len(cfg.TenantQuotas) > 0 {
		r.quotaStates = map[string]*tokenBucket{}
	}
	if cfg.TraceCapacity > 0 {
		r.trace = trace.NewRing(cfg.TraceCapacity)
	}
	return r
}

// Pool exposes the replica pool (status snapshots, tests).
func (r *Router) Pool() *Pool { return r.pool }

// checkTenantQuota applies the router-level admission rate for one
// request. On refusal it returns a *QuotaError (unwrapping to
// ErrOverloaded → HTTP 429) carrying the tenant's own token-bucket
// wait, and charges the rejection to the tenant's isolated router-side
// shed counter. Only the rate gate runs here; queue share needs the
// replicas' queue view.
func (r *Router) checkTenantQuota(body *InferRequestJSON) error {
	if r.quotaStates == nil {
		return nil
	}
	q, ok := quotaFor(r.cfg.TenantQuotas, body.Tenant)
	if !ok || q.RatePerSec <= 0 {
		return nil
	}
	items := body.Items
	if items <= 0 {
		items = len(body.Inputs) + len(body.Images)
	}
	if items <= 0 {
		items = 1
	}
	r.qmu.Lock()
	bucket := tenantEntry(r.quotaStates, body.Tenant)
	r.qmu.Unlock()
	if ok, wait := bucket.take(float64(items), q); !ok {
		r.met.quotaShed.Inc()
		r.tmu.Lock()
		r.tenantShed[body.Tenant]++
		r.tmu.Unlock()
		if r.trace != nil && body.ID != "" {
			now := time.Now()
			r.trace.Add(trace.Span{
				Name:  "route:quota",
				Track: "req:" + body.ID,
				Start: sinceEpoch(now), Duration: 0,
				Args: map[string]any{"tenant": body.Tenant, "outcome": "quota-shed"},
			})
		}
		return &QuotaError{Tenant: body.Tenant, Reason: "rate", RetryAfter: wait}
	}
	return nil
}

// begin registers one in-flight proxied request, refusing after Close.
func (r *Router) begin() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return false
	}
	r.inflight.Add(1)
	return true
}

// Close drains the router: new requests are refused with
// ErrServerClosed, requests already being proxied get up to
// DrainTimeout to finish, then the health loops stop. Replicas are
// not touched — their own graceful drain (Server.Close) composes with
// this one: drain the router first, then the replicas.
func (r *Router) Close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	r.mu.Unlock()
	waitGrace(&r.inflight, r.cfg.DrainTimeout)
	r.pool.Close()
}

// Infer routes one inference request. Placement is class-aware and
// least-loaded (Pool.pick); on a replica fault (transport error, 5xx)
// the replica is charged an error toward ejection and the request
// fails over to the next candidate, and on a 429 the request spills to
// the next candidate without charging the replica. 4xx responses and
// 504 deadline expiries are final: the first is the caller's fault,
// the second cannot be cured by a retry that spends even more of the
// deadline.
func (r *Router) Infer(ctx context.Context, model string, body InferRequestJSON) (*InferResponseJSON, error) {
	if !r.begin() {
		return nil, ErrServerClosed
	}
	defer r.inflight.Done()
	start := time.Now()
	class, err := ParseClass(body.Class)
	if err != nil {
		return nil, err
	}
	if err := r.checkTenantQuota(&body); err != nil {
		return nil, err
	}
	// Every current member once; resolved per request so dynamic pools
	// (fleet registration) keep full failover coverage as they grow.
	maxAttempts := r.pool.Size()
	tried := make(map[*Replica]bool, maxAttempts)
	var lastErr error
	overloaded := 0
	var minRetryAfter time.Duration
	// noteAttempt records one routing attempt on the request's trace
	// track (sequential attempts, so the track never overlaps).
	noteAttempt := func(rep *Replica, began time.Time, outcome string) {
		if r.trace == nil || body.ID == "" {
			return
		}
		r.trace.Add(trace.Span{
			Name:  "route:" + rep.Name,
			Track: "req:" + body.ID,
			Start: sinceEpoch(began), Duration: stageDur(began, time.Now()),
			Args: map[string]any{"model": model, "replica": rep.Name, "outcome": outcome, "tenant": body.Tenant},
		})
	}
	for attempt := 0; attempt < maxAttempts; attempt++ {
		rep := r.pool.pick(model, class, tried)
		if rep == nil {
			break
		}
		tried[rep] = true
		began := time.Now()
		rep.inflight.Add(1)
		resp, err := rep.client.Infer(ctx, model, body)
		rep.inflight.Add(-1)
		if err == nil {
			noteAttempt(rep, began, "ok")
			rep.noteSuccess()
			r.met.requests.Inc()
			r.met.latency.Observe(time.Since(start).Seconds())
			if body.Tenant != "" {
				r.tmu.Lock()
				r.tenantReqs[body.Tenant]++
				r.tmu.Unlock()
			}
			return resp, nil
		}
		lastErr = err
		if ctx.Err() != nil {
			break
		}
		var oe *overloadError
		if errors.As(err, &oe) {
			// Backpressure, not a fault: the replica is alive and
			// shedding. Spill to the next one.
			overloaded++
			if oe.retryAfter > 0 && (minRetryAfter == 0 || oe.retryAfter < minRetryAfter) {
				minRetryAfter = oe.retryAfter
			}
			r.met.spills.Inc()
			noteAttempt(rep, began, "spill")
			continue
		}
		var se *StatusError
		if errors.As(err, &se) {
			if se.Code == http.StatusGatewayTimeout || se.Code < 500 {
				r.met.errors.Inc()
				noteAttempt(rep, began, "final-error")
				return nil, err
			}
			// 5xx: replica fault — charge it and fail over.
			rep.noteError()
			r.met.failovers.Inc()
			noteAttempt(rep, began, "failover")
			continue
		}
		// Transport-level failure (dial refused, connection reset
		// mid-flight): the replica is gone or going; fail over.
		rep.noteError()
		r.met.failovers.Inc()
		noteAttempt(rep, began, "failover")
	}
	r.met.errors.Inc()
	if lastErr == nil {
		return nil, ErrNoReplicas
	}
	if overloaded == len(tried) && overloaded > 0 {
		// Every candidate shed: surface a retryable 429, with the
		// soonest Retry-After any replica offered.
		return nil, &overloadError{
			err:        fmt.Errorf("%w: all %d replicas overloaded: %w", ErrOverloaded, overloaded, lastErr),
			retryAfter: minRetryAfter,
		}
	}
	return nil, fmt.Errorf("serve: router: %d replica(s) failed: %w", len(tried), lastErr)
}

// Models returns the union of model names across replicas, preferring
// live answers from healthy replicas and falling back to cached
// metrics snapshots.
func (r *Router) Models(ctx context.Context) ([]string, error) {
	seen := map[string]bool{}
	ok := false
	for _, rep := range r.pool.Replicas() {
		if rep.Healthy() {
			if names, err := rep.client.Models(ctx); err == nil {
				ok = true
				for _, n := range names {
					seen[n] = true
				}
				continue
			}
		}
		if m := rep.metrics.Load(); m != nil {
			ok = true
			for _, mm := range m.Models {
				seen[mm.Model] = true
			}
		}
	}
	if !ok {
		return nil, ErrNoReplicas
	}
	return sortedKeys(seen), nil
}

// RouterReplicaJSON is one replica's entry in the router section of
// GET /v2/metrics.
type RouterReplicaJSON struct {
	Name              string `json:"name"`
	URL               string `json:"url"`
	Healthy           bool   `json:"healthy"`
	Draining          bool   `json:"draining,omitempty"`
	ConsecutiveErrors int    `json:"consecutive_errors"`
	Ejections         int64  `json:"ejections"`
	Inflight          int64  `json:"inflight"`
	QueueDepth        int64  `json:"queue_depth"`
}

// RouterJSON is the router section of GET /v2/metrics.
type RouterJSON struct {
	Requests         int64               `json:"requests"`
	Errors           int64               `json:"errors"`
	Failovers        int64               `json:"failovers"`
	Spills           int64               `json:"spills"`
	QuotaRejects     int64               `json:"quota_rejects,omitempty"`
	Streams          int64               `json:"streams"`
	HealthyReplicas  int                 `json:"healthy_replicas"`
	LatencyMs        LatencySummaryJSON  `json:"latency_ms"`
	RequestsByTenant map[string]int64    `json:"requests_by_tenant,omitempty"`
	ShedByTenant     map[string]int64    `json:"shed_by_tenant,omitempty"`
	Replicas         []RouterReplicaJSON `json:"replicas"`
}

// RouterMetricsJSON is the router's GET /v2/metrics body: the models
// section aggregates every replica's per-model metrics (so
// serve.Client.Metrics decodes it unchanged), and the router section
// adds routing and per-replica health detail.
type RouterMetricsJSON struct {
	Models []ModelMetricsJSON `json:"models"`
	Router RouterJSON         `json:"router"`
}

var routerFamilies = []family[RouterJSON]{
	{name: "harvest_router_requests_total", typ: "counter", help: "Proxied requests answered successfully.",
		i64: func(r *RouterJSON) *int64 { return &r.Requests }},
	{name: "harvest_router_errors_total", typ: "counter", help: "Proxied requests that ultimately failed.",
		i64: func(r *RouterJSON) *int64 { return &r.Errors }},
	{name: "harvest_router_failovers_total", typ: "counter", help: "Replica faults that moved a request to another replica.",
		i64: func(r *RouterJSON) *int64 { return &r.Failovers }},
	{name: "harvest_router_spills_total", typ: "counter", help: "Overload rejections that moved a request to another replica.",
		i64: func(r *RouterJSON) *int64 { return &r.Spills }},
	{name: "harvest_router_quota_rejects_total", typ: "counter", help: "Requests refused by the router-level tenant quota.",
		i64: func(r *RouterJSON) *int64 { return &r.QuotaRejects }},
	{name: "harvest_router_streams_total", typ: "counter", help: "Camera ingest streams proxied to a replica.",
		i64: func(r *RouterJSON) *int64 { return &r.Streams }},
	{name: "harvest_router_latency_seconds", typ: "histogram", help: "End-to-end latency of successfully routed requests.",
		lat: func(r *RouterJSON) *LatencySummaryJSON { return &r.LatencyMs }},
}

var replicaFamilies = []family[RouterReplicaJSON]{
	{name: "harvest_replica_inflight", typ: "gauge", help: "Router-proxied requests currently on the replica.",
		i64: func(r *RouterReplicaJSON) *int64 { return &r.Inflight }},
	{name: "harvest_replica_queue_depth", typ: "gauge", help: "Replica-reported total admission queue depth.",
		i64: func(r *RouterReplicaJSON) *int64 { return &r.QueueDepth }},
	{name: "harvest_replica_ejections_total", typ: "counter", help: "Times the replica was ejected from rotation.",
		i64: func(r *RouterReplicaJSON) *int64 { return &r.Ejections }},
}

// Metrics snapshots the router: its own routing counters and replica
// health, plus every replica's per-model metrics (fetched live from
// healthy replicas, else the last probe's copy) merged per model by
// ModelMetricsJSON.merge — counters and queue depths sum, latency
// histograms add bucket-wise, so fleet percentiles are exact.
func (r *Router) Metrics(ctx context.Context) RouterMetricsJSON {
	byModel := map[string]*ModelMetricsJSON{}
	for _, rep := range r.pool.Replicas() {
		m := rep.metrics.Load()
		if rep.Healthy() {
			if fresh, err := rep.client.Metrics(ctx); err == nil {
				rep.storeMetrics(fresh)
				m = fresh
			}
		}
		if m == nil {
			continue
		}
		for i := range m.Models {
			mm := &m.Models[i]
			agg, ok := byModel[mm.Model]
			if !ok {
				agg = &ModelMetricsJSON{Model: mm.Model}
				byModel[mm.Model] = agg
			}
			agg.merge(mm)
		}
	}
	out := RouterMetricsJSON{
		Router: RouterJSON{
			Requests:        r.met.requests.Load(),
			Errors:          r.met.errors.Load(),
			Failovers:       r.met.failovers.Load(),
			Spills:          r.met.spills.Load(),
			QuotaRejects:    r.met.quotaShed.Load(),
			Streams:         r.met.streams.Load(),
			HealthyReplicas: r.pool.HealthyCount(),
			LatencyMs:       LatencySummary(r.met.latency.Snapshot()),
		},
	}
	r.tmu.Lock()
	if len(r.tenantReqs) > 0 {
		out.Router.RequestsByTenant = maps.Clone(r.tenantReqs)
	}
	if len(r.tenantShed) > 0 {
		out.Router.ShedByTenant = maps.Clone(r.tenantShed)
	}
	r.tmu.Unlock()
	for _, name := range sortedKeys(byModel) {
		out.Models = append(out.Models, *byModel[name])
	}
	for _, st := range r.pool.Status() {
		out.Router.Replicas = append(out.Router.Replicas, RouterReplicaJSON(st))
	}
	return out
}

// Handler exposes the router over HTTP with the same /v2/* surface as
// a single Server, so serve.Client (and anything else speaking the
// KServe-v2-flavored API) works unchanged against a router:
//
//	GET  /v2/health/ready       ready iff >=1 healthy replica
//	GET  /v2/models             union across replicas
//	GET  /v2/metrics            aggregated + router/replica detail
//	POST /v2/models/{name}/infer routed with failover
func (r *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v2/health/ready", func(w http.ResponseWriter, req *http.Request) {
		if r.pool.HealthyCount() == 0 {
			writeJSON(w, http.StatusServiceUnavailable, errorJSON{Error: ErrNoReplicas.Error()})
			return
		}
		w.WriteHeader(http.StatusOK)
	})
	mux.HandleFunc("GET /v2/models", func(w http.ResponseWriter, req *http.Request) {
		names, err := r.Models(req.Context())
		if err != nil {
			writeJSON(w, http.StatusServiceUnavailable, errorJSON{Error: err.Error()})
			return
		}
		writeJSON(w, http.StatusOK, ModelListJSON{Models: names})
	})
	mux.HandleFunc("GET /v2/metrics", func(w http.ResponseWriter, req *http.Request) {
		writeJSON(w, http.StatusOK, r.Metrics(req.Context()))
	})
	mux.HandleFunc("GET /v2/trace", func(w http.ResponseWriter, req *http.Request) {
		serveTrace(w, req, r.trace)
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", metrics.PromContentType)
		r.writeProm(w, req.Context())
	})
	mux.HandleFunc("POST /v2/models/", func(w http.ResponseWriter, req *http.Request) {
		name, ok := cutModelAction(req.URL.Path, "infer")
		if !ok {
			writeJSON(w, http.StatusNotFound, errorJSON{Error: "not found"})
			return
		}
		body, buf, ok := readInfer(w, req, wireLimits{body: r.cfg.MaxBodyBytes})
		if !ok {
			return
		}
		// Each attempt of Infer forwards body's image slices as they are,
		// after a header marshalled anew; none reads them afterwards.
		defer buf.release()
		resp, err := r.Infer(req.Context(), name, body)
		if err != nil {
			var qe *QuotaError
			var oe *overloadError
			if errors.As(err, &qe) {
				// Router-level quota shed: Retry-After prices the
				// tenant's own token-bucket refill, not fleet backlog.
				w.Header().Set("Retry-After", strconv.Itoa(clampRetrySeconds(int(qe.RetryAfter.Seconds())+1)))
			} else if errors.As(err, &oe) && oe.retryAfter > 0 {
				// Already the replica's own whole-second hint: pass it
				// on as it is, or every hop would add a second.
				w.Header().Set("Retry-After", strconv.Itoa(clampRetrySeconds(int(oe.retryAfter/time.Second))))
			}
			writeJSON(w, errStatus(err, http.StatusBadGateway), errorJSON{Error: err.Error()})
			return
		}
		writeInfer(w, req, resp)
	})
	mux.HandleFunc("POST /v2/streams/{camera}", r.handleStreamProxy)
	return mux
}

// writeProm writes the router's Prometheus text exposition from one
// Metrics snapshot: the router and per-replica families declared
// above, then the same per-model families a replica exposes, over the
// fleet merge.
func (r *Router) writeProm(w io.Writer, ctx context.Context) {
	pw := metrics.PromWriter{W: w}
	m := r.Metrics(ctx)
	writeFamilies(pw, routerFamilies, []labeled[RouterJSON]{{"", &m.Router}})
	for _, f := range []struct {
		name, help string
		byTenant   map[string]int64
	}{
		{"harvest_router_tenant_requests_total", "Successfully routed requests per tenant.", m.Router.RequestsByTenant},
		{"harvest_router_tenant_shed_total", "Router-quota rejections per tenant.", m.Router.ShedByTenant},
	} {
		if len(f.byTenant) > 0 {
			pw.Head(f.name, "counter", f.help)
			for _, tenant := range sortedKeys(f.byTenant) {
				pw.Int(f.name, metrics.PromLabel("tenant", tenant), f.byTenant[tenant])
			}
		}
	}
	replicas := make([]labeled[RouterReplicaJSON], len(m.Router.Replicas))
	pw.Head("harvest_replica_healthy", "gauge", "1 if the replica is in rotation, 0 if ejected.")
	for i := range m.Router.Replicas {
		rep := &m.Router.Replicas[i]
		replicas[i] = labeled[RouterReplicaJSON]{metrics.PromLabel("replica", rep.Name), rep}
		healthy := int64(0)
		if rep.Healthy {
			healthy = 1
		}
		pw.Int("harvest_replica_healthy", replicas[i].labels, healthy)
	}
	writeFamilies(pw, replicaFamilies, replicas)
	writeModelProm(pw, m.Models)
	writeTraceProm(pw, r.trace)
}

// cutModelAction parses /v2/models/{name}/{action} paths.
func cutModelAction(path, action string) (string, bool) {
	rest := strings.TrimPrefix(path, "/v2/models/")
	name, got, ok := strings.Cut(rest, "/")
	return name, ok && got == action && name != ""
}
