package serve

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"
	"unicode"

	"harvest/internal/imaging"
	"harvest/internal/metrics"
	"harvest/internal/tensor"
	"harvest/internal/trace"
)

// RequestIDHeader carries the request id end-to-end: a client (or the
// router) sets it, the replica adopts it, and every tier echoes it on
// the response, so one id follows the request through logs, traces and
// response bodies across the compute continuum.
const RequestIDHeader = "X-Request-ID"

// NewRequestID returns a fresh random request id (16 hex chars).
func NewRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failure is effectively fatal elsewhere; fall back
		// to a constant rather than panic in the request path.
		return "rand-unavailable"
	}
	return hex.EncodeToString(b[:])
}

// maxRequestIDLen bounds a caller-chosen request id. The id is input
// the server retains: it names the trace track of every span of the
// request in the trace ring, and is echoed in a response header.
const maxRequestIDLen = 128

// requestID picks the request's id: body id first, then the propagated
// header, then a freshly generated one. A caller-chosen id longer than
// maxRequestIDLen or containing control characters is refused.
func requestID(body string, r *http.Request) (string, error) {
	id := body
	if id == "" {
		id = r.Header.Get(RequestIDHeader)
	}
	if id == "" {
		return NewRequestID(), nil
	}
	if len(id) > maxRequestIDLen {
		return "", fmt.Errorf("serve: request id is %d bytes, limit %d", len(id), maxRequestIDLen)
	}
	if strings.ContainsFunc(id, unicode.IsControl) {
		return "", fmt.Errorf("serve: request id %q contains control characters", id)
	}
	return id, nil
}

// HTTP wire types, loosely following the Triton KServe v2 layout.

// InferRequestJSON is the POST body of /v2/models/{name}/infer.
type InferRequestJSON struct {
	ID string `json:"id,omitempty"`
	// Items is the number of images in the request.
	Items int `json:"items"`
	// Inputs optionally carries flattened CHW tensors for real-compute
	// models.
	Inputs [][]float32 `json:"inputs,omitempty"`
	// Images carries base64-encoded image payloads (JSON's []byte
	// encoding), one per item, for models with a preprocessing engine:
	// the server decodes, resizes and normalizes them into tensors.
	// Exclusive with Inputs.
	Images [][]byte `json:"images_b64,omitempty"`
	// ImageFormat names the encoding of Images: "jpeg" (default) or
	// "ppm".
	ImageFormat string `json:"image_format,omitempty"`
	// Class selects the scenario lane: "realtime", "online" (default)
	// or "offline" (paper §2.2 deployment scenarios).
	Class string `json:"class,omitempty"`
	// DeadlineMs is the request's latency budget in milliseconds,
	// counted from server receipt. 0 means the class default (16.7 ms
	// for realtime, none otherwise). Requests that cannot meet their
	// budget are shed with HTTP 504 instead of executed.
	DeadlineMs float64 `json:"deadline_ms,omitempty"`
	// Tenant identifies the submitting tenant for fair scheduling and
	// quotas. Empty falls back to the X-Tenant-ID header, then to the
	// default tenant.
	Tenant string `json:"tenant,omitempty"`
}

// MsDuration converts a millisecond wire field (deadline_ms, budget_ms,
// ttl_ms) to a Duration, saturating where time.Duration(ms*1e6) would
// wrap: 1e13 ms is the longest Duration, not 292 years ago.
func MsDuration(ms float64) time.Duration {
	switch d := ms * float64(time.Millisecond); {
	case d >= math.MaxInt64:
		return math.MaxInt64
	case d <= math.MinInt64:
		return math.MinInt64
	default:
		return time.Duration(d)
	}
}

// readInfer is the front of both infer handlers, replica and router:
// it decodes the body, framed or plain JSON and within lim, into a
// pooled buffer, then fixes the request id and the canonical tenant
// (body field, else X-Tenant-ID, else the default tenant) at this edge
// and echoes both on the response — the same id and tenant ride body
// and headers to the next tier, so accounting, trace spans and logs
// agree across tiers. Binary images in body alias buf: the handler
// releases it once Submit or Router.Infer has returned, not before.
// When ok is false the error response has been written.
func readInfer(w http.ResponseWriter, r *http.Request, lim wireLimits) (body InferRequestJSON, buf *wireBuf, ok bool) {
	var h requestHeader
	buf, err := decodeInfer(r.Body, r.Header, r.ContentLength, lim, &wirePool, &h)
	if err == nil {
		if h.Tenant == "" {
			h.Tenant = r.Header.Get(TenantHeader)
		}
		if h.ID, err = requestID(h.ID, r); err == nil {
			h.Tenant, err = ParseTenant(h.Tenant)
		}
	}
	if err != nil {
		buf.release()
		writeJSON(w, errStatus(err, http.StatusBadRequest), errorJSON{Error: err.Error()})
		return body, nil, false
	}
	w.Header().Set(RequestIDHeader, h.ID)
	w.Header().Set(TenantHeader, h.Tenant)
	return h.InferRequestJSON, buf, true
}

// TimingsJSON is the per-stage latency breakdown of one served
// request, in milliseconds: where the time went between submission and
// response.
type TimingsJSON struct {
	// AdmitMs is admission control: request receipt to the
	// admission-slot reservation.
	AdmitMs float64 `json:"admit_ms"`
	// PreprocessMs is the encoded-image preprocess stage: decode, warp,
	// resize, normalize. Zero on the tensor and items-only paths.
	PreprocessMs float64 `json:"preprocess_ms"`
	// QueueMs is the lane wait: enqueue to batcher pickup, which
	// includes waiting for a free instance.
	QueueMs float64 `json:"queue_ms"`
	// BatchAssemblyMs is the dynamic-batching window: pickup to the
	// fused batch's execution start.
	BatchAssemblyMs float64 `json:"batch_assembly_ms"`
	// ComputeMs is the execution time of the fused batch.
	ComputeMs float64 `json:"compute_ms"`
	// TotalMs is wall time from HTTP receipt to response writing.
	TotalMs float64 `json:"total_ms"`
}

// InferResponseJSON is the response body.
type InferResponseJSON struct {
	ID             string       `json:"id,omitempty"`
	Model          string       `json:"model"`
	Items          int          `json:"items"`
	BatchSize      int          `json:"batch_size"`
	QueueMs        float64      `json:"queue_ms"`
	ComputeMs      float64      `json:"compute_ms"`
	Timings        *TimingsJSON `json:"timings_ms,omitempty"`
	Outputs        [][]float32  `json:"outputs,omitempty"`
	Classification []int        `json:"classification,omitempty"`
	// Tenant echoes the canonical tenant the request was accounted to.
	Tenant string `json:"tenant,omitempty"`
}

// ModelListJSON is the response of GET /v2/models.
type ModelListJSON struct {
	Models []string `json:"models"`
}

// MetricsJSON is the response of GET /v2/metrics.
type MetricsJSON struct {
	Models []ModelMetricsJSON `json:"models"`
	// Extensions holds the JSON blocks of registered metrics
	// extensions, keyed by extension name (absent when none are
	// registered).
	Extensions map[string]json.RawMessage `json:"extensions,omitempty"`
}

// metricsExtension is one named block a higher layer contributes to the
// server's metrics surfaces.
type metricsExtension struct {
	name string
	json func() any
	prom func(io.Writer)
}

// AddMetricsExtension registers a named metrics block that rides the
// server's existing observability surfaces: jsonFn's value appears
// under "extensions" in GET /v2/metrics, and promFn (optional) is
// appended to the GET /metrics Prometheus exposition. This is how the
// streaming ingest tier exports its per-camera counters without serve
// importing it.
func (s *Server) AddMetricsExtension(name string, jsonFn func() any, promFn func(io.Writer)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.extensions = append(s.extensions, metricsExtension{name: name, json: jsonFn, prom: promFn})
}

// metricsExtensions snapshots the registered extensions.
func (s *Server) metricsExtensions() []metricsExtension {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]metricsExtension(nil), s.extensions...)
}

// errorJSON is the error envelope.
type errorJSON struct {
	Error string `json:"error"`
}

// inferLimits is what one infer body may claim of a model: MaxBatch
// parts, MaxImageBytes an image, and in all a fixed overhead plus room
// for MaxBatch input tensors when the model takes tensor inputs (~16
// bytes per float32 as JSON text, 4 as a binary part) plus room for
// MaxBatch images when it preprocesses (4/3 of MaxImageBytes as
// images_b64, 1/1 as binary parts). That can exceed 2 GiB: it bounds a
// claim, and decodeInfer commits memory only as bytes arrive.
func inferLimits(cfg ModelConfig) wireLimits {
	const overhead = 1 << 20
	lim := wireLimits{body: overhead, parts: cfg.MaxBatch, image: cfg.MaxImageBytes}
	if cfg.InputSize > 0 {
		perImage := int64(3*cfg.InputSize*cfg.InputSize) * 16
		lim.body += int64(cfg.MaxBatch) * perImage
	}
	if cfg.Preproc != nil {
		lim.body += int64(cfg.MaxBatch) * (cfg.MaxImageBytes*4/3 + 4)
	}
	return lim
}

// clampRetrySeconds bounds a Retry-After hint to [1, 60] whole
// seconds.
func clampRetrySeconds(sec int) int {
	if sec < 1 {
		sec = 1
	}
	if sec > 60 {
		sec = 60
	}
	return sec
}

// retryAfterFor picks the Retry-After hint for one 429: a quota
// rejection carries the tenant's own budget estimate; a shared
// queue-full rejection prices the lane-aware backlog.
func (s *Server) retryAfterFor(err error, name string, class Class) int {
	var qe *QuotaError
	if errors.As(err, &qe) {
		return clampRetrySeconds(int(qe.RetryAfter.Seconds()) + 1)
	}
	return s.retryAfterSeconds(name, class)
}

// Handler exposes the server over HTTP:
//
//	GET  /v2/health/ready
//	GET  /v2/models
//	GET  /v2/metrics
//	GET  /v2/trace
//	GET  /metrics
//	POST /v2/models/{name}/infer
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v2/health/ready", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	})
	mux.HandleFunc("GET /v2/models", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, ModelListJSON{Models: s.Models()})
	})
	mux.HandleFunc("GET /v2/metrics", func(w http.ResponseWriter, r *http.Request) {
		out := MetricsJSON{Models: s.Metrics()}
		for _, ext := range s.metricsExtensions() {
			raw, err := json.Marshal(ext.json())
			if err != nil {
				continue
			}
			if out.Extensions == nil {
				out.Extensions = make(map[string]json.RawMessage)
			}
			out.Extensions[ext.name] = raw
		}
		writeJSON(w, http.StatusOK, out)
	})
	mux.HandleFunc("GET /v2/trace", func(w http.ResponseWriter, r *http.Request) {
		serveTrace(w, r, s.Trace())
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", metrics.PromContentType)
		s.writeProm(w)
		for _, ext := range s.metricsExtensions() {
			if ext.prom != nil {
				ext.prom(w)
			}
		}
	})
	mux.HandleFunc("POST /v2/models/", func(w http.ResponseWriter, r *http.Request) {
		arrived := time.Now()
		name, ok := cutModelAction(r.URL.Path, "infer")
		if !ok {
			writeJSON(w, http.StatusNotFound, errorJSON{Error: "not found"})
			return
		}
		cfg, err := s.ModelConfigFor(name)
		if err != nil {
			writeJSON(w, http.StatusNotFound, errorJSON{Error: err.Error()})
			return
		}
		// Bound the body before decoding: an items-only request is tiny,
		// a tensor request at most MaxBatch full-size inputs.
		body, buf, ok := readInfer(w, r, inferLimits(cfg))
		if !ok {
			return
		}
		// Submit is done with the images when it returns, however it
		// returns: the preprocess stage runs inside it.
		defer buf.release()
		id, tenant := body.ID, body.Tenant
		class, err := ParseClass(body.Class)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, errorJSON{Error: err.Error()})
			return
		}
		format, err := imaging.ParseFormat(body.ImageFormat)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, errorJSON{Error: err.Error()})
			return
		}
		req := &Request{
			ID: id, Model: name, Items: body.Items, Inputs: body.Inputs,
			Images: body.Images, ImageFormat: format,
			Class: class, Tenant: tenant,
		}
		if body.DeadlineMs > 0 {
			req.Deadline = time.Now().Add(MsDuration(body.DeadlineMs))
		}
		resp, err := s.Submit(r.Context(), req)
		if err != nil {
			if errors.Is(err, ErrOverloaded) {
				w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterFor(err, name, class)))
			}
			writeJSON(w, errStatus(err, http.StatusInternalServerError), errorJSON{Error: err.Error()})
			return
		}
		out := InferResponseJSON{
			ID:        resp.ID,
			Model:     resp.Model,
			Items:     resp.Items,
			Tenant:    tenant,
			BatchSize: resp.BatchSize,
			QueueMs:   resp.QueueSeconds * 1000,
			ComputeMs: resp.ComputeSeconds * 1000,
			Timings: &TimingsJSON{
				AdmitMs:         resp.AdmitSeconds * 1000,
				PreprocessMs:    resp.PreprocessSeconds * 1000,
				QueueMs:         resp.LaneSeconds * 1000,
				BatchAssemblyMs: resp.AssembleSeconds * 1000,
				ComputeMs:       resp.ComputeSeconds * 1000,
			},
			Outputs: resp.Outputs,
		}
		for _, logits := range resp.Outputs {
			out.Classification = append(out.Classification, tensor.ArgMax(logits))
		}
		respondStart := time.Now()
		out.Timings.TotalMs = respondStart.Sub(arrived).Seconds() * 1000
		writeInfer(w, r, &out)
		if cfg.Trace != nil {
			cfg.Trace.Add(trace.Span{
				Name:  "respond",
				Track: "req:" + id,
				Start: sinceEpoch(respondStart), Duration: stageDur(respondStart, time.Now()),
				Args: map[string]any{"model": name, "tenant": tenant},
			})
		}
	})
	return mux
}

// errStatus maps an infer error to the HTTP status that reports it, at
// a replica and at a router alike: a status a replica already answered
// with passes through, the caller's mistakes are 4xx, overload is 429,
// an unmeetable deadline 504, a closed or empty tier 503. Anything else
// is fallback — 500 at a replica; 502 at a router, which is itself fine
// when the tier behind it fails at transport level.
func errStatus(err error, fallback int) int {
	var se *StatusError
	switch {
	case errors.As(err, &se):
		return se.Code
	case errors.Is(err, ErrUnknownModel):
		return http.StatusNotFound
	case errors.Is(err, ErrEmptyRequest), errors.Is(err, ErrTooManyItems),
		errors.Is(err, ErrItemsMismatch), errors.Is(err, ErrBadInput), errors.Is(err, ErrBadClass),
		errors.Is(err, ErrNoPreprocessor), errors.Is(err, ErrMixedInputs),
		errors.Is(err, ErrPreprocess):
		return http.StatusBadRequest
	case errors.Is(err, ErrImageTooLarge):
		return http.StatusRequestEntityTooLarge
	case errors.Is(err, ErrOverloaded):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrDeadlineExpired):
		return http.StatusGatewayTimeout
	case errors.Is(err, ErrServerClosed), errors.Is(err, ErrNoReplicas):
		return http.StatusServiceUnavailable
	}
	return fallback
}

// writeProm writes the server's Prometheus text exposition: every
// declared per-model, per-class and per-tenant family (see metrics.go).
func (s *Server) writeProm(w io.Writer) {
	pw := metrics.PromWriter{W: w}
	writeModelProm(pw, s.Metrics())
	writeTraceProm(pw, s.Trace())
}

// serveTrace answers GET /v2/trace from rec (nil = tracing disabled, an
// empty trace), honouring the ?tenant= filter.
func serveTrace(w http.ResponseWriter, r *http.Request, rec *trace.Recorder) {
	if rec == nil {
		rec = trace.NewRecorder()
	}
	w.Header().Set("Content-Type", "application/json")
	_ = rec.WriteChromeFiltered(w, tenantSpanFilter(r.URL.Query().Get("tenant")))
}

// tenantSpanFilter builds the ?tenant= span predicate for /v2/trace:
// nil (keep everything) for the empty filter, else spans whose
// "tenant" arg matches.
func tenantSpanFilter(tenant string) func(trace.Span) bool {
	if tenant == "" {
		return nil
	}
	return func(sp trace.Span) bool {
		v, ok := sp.Args["tenant"]
		return ok && v == tenant
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// Headers already sent; nothing more we can do.
		_ = err
	}
}

// FormatInferPath returns the infer endpoint path for a model.
func FormatInferPath(model string) string {
	return fmt.Sprintf("/v2/models/%s/infer", model)
}
