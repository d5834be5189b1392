package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"harvest/internal/metrics"
	"harvest/internal/models"
	"harvest/internal/trace"
)

// postInfer sends one infer request to a handler and returns the
// recorder and decoded body.
func postInfer(t *testing.T, h http.Handler, model string, body InferRequestJSON, hdr map[string]string) (*httptest.ResponseRecorder, InferResponseJSON) {
	t.Helper()
	payload, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, FormatInferPath(model), bytes.NewReader(payload))
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var out InferResponseJSON
	if rec.Code == http.StatusOK {
		if err := json.NewDecoder(rec.Body).Decode(&out); err != nil {
			t.Fatalf("decode infer response: %v", err)
		}
	}
	return rec, out
}

func TestInferAssignsAndEchoesRequestID(t *testing.T) {
	s := newTestServer(t, tinyConfig(t))
	h := s.Handler()

	// No id anywhere: the server generates one and echoes it in both
	// the header and the body.
	rec, out := postInfer(t, h, models.NameViTTiny, InferRequestJSON{Items: 1}, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("HTTP %d: %s", rec.Code, rec.Body)
	}
	id := rec.Header().Get(RequestIDHeader)
	if id == "" {
		t.Fatal("no X-Request-ID on response")
	}
	if out.ID != id {
		t.Errorf("body id %q != header id %q", out.ID, id)
	}

	// Header-only id: adopted.
	rec, out = postInfer(t, h, models.NameViTTiny, InferRequestJSON{Items: 1},
		map[string]string{RequestIDHeader: "hdr-42"})
	if got := rec.Header().Get(RequestIDHeader); got != "hdr-42" || out.ID != "hdr-42" {
		t.Errorf("header id not adopted: header %q body %q", got, out.ID)
	}

	// Body id wins over header.
	rec, out = postInfer(t, h, models.NameViTTiny, InferRequestJSON{ID: "body-7", Items: 1},
		map[string]string{RequestIDHeader: "hdr-42"})
	if got := rec.Header().Get(RequestIDHeader); got != "body-7" || out.ID != "body-7" {
		t.Errorf("body id not preferred: header %q body %q", got, out.ID)
	}
}

func TestInferTimingsBreakdown(t *testing.T) {
	s := newTestServer(t, tinyConfig(t))
	rec, out := postInfer(t, s.Handler(), models.NameViTTiny, InferRequestJSON{Items: 2}, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("HTTP %d: %s", rec.Code, rec.Body)
	}
	tm := out.Timings
	if tm == nil {
		t.Fatal("response has no timings_ms")
	}
	if tm.ComputeMs <= 0 {
		t.Errorf("compute_ms %v, want > 0", tm.ComputeMs)
	}
	for name, v := range map[string]float64{
		"admit_ms": tm.AdmitMs, "queue_ms": tm.QueueMs,
		"batch_assembly_ms": tm.BatchAssemblyMs, "total_ms": tm.TotalMs,
	} {
		if v < 0 {
			t.Errorf("%s = %v, want >= 0", name, v)
		}
	}
	// The legacy queue_ms (enqueue to execution start) decomposes into
	// lane wait + batch assembly.
	if got, want := tm.QueueMs+tm.BatchAssemblyMs, out.QueueMs; got < want-0.001 || got > want+0.001 {
		t.Errorf("stage decomposition %v + %v != queue_ms %v", tm.QueueMs, tm.BatchAssemblyMs, want)
	}
	// Total covers at least the wall-clock stages (compute is modeled
	// in pure simulation, so it is excluded from this bound).
	if tm.TotalMs < tm.AdmitMs+tm.QueueMs+tm.BatchAssemblyMs {
		t.Errorf("total_ms %v below stage sum", tm.TotalMs)
	}
}

func TestServerPrometheusEndpoint(t *testing.T) {
	s := newTestServer(t, tinyConfig(t))
	h := s.Handler()
	for i := 0; i < 5; i++ {
		if rec, _ := postInfer(t, h, models.NameViTTiny, InferRequestJSON{Items: 1}, nil); rec.Code != http.StatusOK {
			t.Fatalf("HTTP %d", rec.Code)
		}
	}
	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("HTTP %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != metrics.PromContentType {
		t.Errorf("content type %q", ct)
	}
	out := rec.Body.String()
	label := fmt.Sprintf("{model=%q}", models.NameViTTiny)
	for _, want := range []string{
		"# TYPE harvest_requests_total counter",
		"harvest_requests_total" + label + " 5",
		"# TYPE harvest_queue_depth gauge",
		"# TYPE harvest_queue_latency_seconds histogram",
		"harvest_queue_latency_seconds_count" + label + " 5",
		"harvest_compute_latency_seconds_bucket",
		`le="+Inf"`,
		"harvest_class_queue_latency_seconds_count{model=\"" + models.NameViTTiny + "\",class=\"online\"} 5",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

func TestServerTraceEndpoint(t *testing.T) {
	s := NewServer()
	t.Cleanup(s.Close)
	s.SetTrace(trace.NewRing(256))
	if err := s.Register(tinyConfig(t)); err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	for i := 0; i < 3; i++ {
		body := InferRequestJSON{ID: fmt.Sprintf("trace-%d", i), Items: 1}
		if rec, _ := postInfer(t, h, models.NameViTTiny, body, nil); rec.Code != http.StatusOK {
			t.Fatalf("HTTP %d", rec.Code)
		}
	}
	// The recorded timeline is consistent: non-negative durations, no
	// per-track overlap — including in pure simulation (TimeScale 0).
	if err := s.Trace().Validate(); err != nil {
		t.Fatalf("server trace invalid: %v", err)
	}
	req := httptest.NewRequest(http.MethodGet, "/v2/trace", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("HTTP %d", rec.Code)
	}
	var events []map[string]any
	if err := json.NewDecoder(rec.Body).Decode(&events); err != nil {
		t.Fatalf("trace is not a JSON event array: %v", err)
	}
	tracks := map[string]bool{}
	stages := map[string]bool{}
	for _, ev := range events {
		switch ev["ph"] {
		case "M":
			if args, ok := ev["args"].(map[string]any); ok {
				if name, ok := args["name"].(string); ok {
					tracks[name] = true
				}
			}
		case "X":
			if name, ok := ev["name"].(string); ok {
				stages[name] = true
			}
			if ts, ok := ev["ts"].(float64); !ok || ts < 0 {
				t.Errorf("event %v has negative/missing ts", ev["name"])
			}
		}
	}
	if !tracks["req:trace-0"] {
		t.Errorf("no request track in trace; tracks: %v", tracks)
	}
	for _, stage := range []string{"admit", "queue", "batch-assembly", "compute", "respond"} {
		if !stages[stage] {
			t.Errorf("stage %q missing from trace; stages: %v", stage, stages)
		}
	}
}

// TestRouterRequestIDPropagation drives a request through the real
// router and replica HTTP stack and asserts one id follows it end to
// end: assigned at the router, carried to the replica (which records
// it in its trace), and echoed back to the client.
func TestRouterRequestIDPropagation(t *testing.T) {
	srv, hs := newTestReplica(t, 0)
	defer hs.Close()
	defer srv.Close()
	router, err := NewRouter([]string{hs.URL}, RouterConfig{Pool: fastPool()})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()

	rec, out := postInfer(t, router.Handler(), models.NameViTTiny, InferRequestJSON{Items: 1}, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("HTTP %d: %s", rec.Code, rec.Body)
	}
	id := rec.Header().Get(RequestIDHeader)
	if id == "" {
		t.Fatal("router response has no X-Request-ID")
	}
	if out.ID != id {
		t.Errorf("replica body id %q != router header id %q", out.ID, id)
	}
	// The router's own trace saw the same request id.
	found := false
	for _, sp := range router.trace.Spans() {
		if sp.Track == "req:"+id && strings.HasPrefix(sp.Name, "route:") {
			found = true
			if sp.Args["outcome"] != "ok" {
				t.Errorf("route span outcome %v", sp.Args["outcome"])
			}
		}
	}
	if !found {
		t.Errorf("router trace has no route span on track req:%s", id)
	}
	if err := router.trace.Validate(); err != nil {
		t.Errorf("router trace invalid: %v", err)
	}
	// An id too long to retain in the trace ring is refused at the edge.
	rec, _ = postInfer(t, router.Handler(), models.NameViTTiny, InferRequestJSON{Items: 1},
		map[string]string{RequestIDHeader: strings.Repeat("x", maxRequestIDLen+1)})
	if rec.Code != http.StatusBadRequest {
		t.Errorf("oversized request id through the router: HTTP %d, want 400", rec.Code)
	}
}

// fakeReplica serves canned /v2/metrics (healthy probe included), for
// aggregation tests with controlled distributions.
func fakeReplica(t *testing.T, m MetricsJSON) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v2/health/ready", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	})
	mux.HandleFunc("GET /v2/metrics", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, m)
	})
	hs := httptest.NewServer(mux)
	t.Cleanup(hs.Close)
	return hs
}

// observeN records n observations around the given latency.
func observeN(r *metrics.LatencyRecorder, n int, seconds float64) {
	for i := 0; i < n; i++ {
		r.Observe(seconds * (1 + float64(i%10)/1000))
	}
}

// TestRouterMergesPercentilesExactly is the regression test for the
// router's percentile aggregation: two replicas with skewed latency
// distributions (one fast, one slow) must merge to the percentiles of
// the combined distribution. The old count-weighted mean of per-replica
// p99s lands an order of magnitude below the true merged tail and must
// fail this test.
func TestRouterMergesPercentilesExactly(t *testing.T) {
	var fast, slow, combined metrics.LatencyRecorder
	observeN(&fast, 900, 0.001)
	observeN(&slow, 100, 1.0)
	observeN(&combined, 900, 0.001)
	observeN(&combined, 100, 1.0)

	mkMetrics := func(r *metrics.LatencyRecorder, n int64) MetricsJSON {
		return MetricsJSON{Models: []ModelMetricsJSON{{
			Model:    models.NameViTTiny,
			Requests: n,
			QueueMs:  LatencySummary(r.Snapshot()),
		}}}
	}
	fastRep := fakeReplica(t, mkMetrics(&fast, 900))
	slowRep := fakeReplica(t, mkMetrics(&slow, 100))

	router, err := NewRouter([]string{fastRep.URL, slowRep.URL}, RouterConfig{Pool: fastPool()})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()

	agg := router.Metrics(context.Background())
	if len(agg.Models) != 1 {
		t.Fatalf("aggregated models: %+v", agg.Models)
	}
	got := agg.Models[0].QueueMs
	exact := combined.Snapshot()
	wantP99 := exact.Quantile(99) * 1000
	if got.P99Ms != wantP99 {
		t.Errorf("merged p99 %v ms, want exact %v ms", got.P99Ms, wantP99)
	}
	if got.Count != 1000 {
		t.Errorf("merged count %d, want 1000", got.Count)
	}
	if got.MaxMs != exact.Max*1000 || got.MinMs != exact.Min*1000 {
		t.Errorf("merged extremes [%v, %v] ms, want [%v, %v]", got.MinMs, got.MaxMs, exact.Min*1000, exact.Max*1000)
	}
	// The true merged p99 sits in the slow second: the weighted-mean
	// answer (~0.9*1ms + 0.1*1000ms ≈ 100ms) must be far from it.
	fastP99 := fast.Snapshot().Quantile(99) * 1000
	slowP99 := slow.Snapshot().Quantile(99) * 1000
	weightedMean := 0.9*fastP99 + 0.1*slowP99
	if wantP99 < 500 {
		t.Fatalf("merged p99 %v ms, want deep in the slow tail", wantP99)
	}
	if diff := wantP99 - weightedMean; diff < wantP99/2 {
		t.Fatalf("weighted mean %v too close to truth %v; regression test is vacuous", weightedMean, wantP99)
	}
	// Buckets survive the merge, so a second aggregation tier (router
	// of routers) could merge exactly again.
	if len(got.Buckets) != metrics.NumLatencyBuckets {
		t.Errorf("merged summary lost its buckets: %d", len(got.Buckets))
	}
}

func TestRouterPrometheusEndpoint(t *testing.T) {
	srv, hs := newTestReplica(t, 0)
	defer hs.Close()
	defer srv.Close()
	router, err := NewRouter([]string{hs.URL}, RouterConfig{Pool: fastPool()})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	h := router.Handler()
	for i := 0; i < 3; i++ {
		if rec, _ := postInfer(t, h, models.NameViTTiny, InferRequestJSON{Items: 1}, nil); rec.Code != http.StatusOK {
			t.Fatalf("HTTP %d: %s", rec.Code, rec.Body)
		}
	}
	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("HTTP %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != metrics.PromContentType {
		t.Errorf("content type %q", ct)
	}
	out := rec.Body.String()
	for _, want := range []string{
		"harvest_router_requests_total 3",
		"# TYPE harvest_router_latency_seconds histogram",
		"harvest_router_latency_seconds_count 3",
		"# TYPE harvest_replica_healthy gauge",
		`harvest_replica_healthy{replica=`,
		"harvest_replica_ejections_total{replica=",
		"harvest_queue_latency_seconds_count{model=\"" + models.NameViTTiny + "\"} 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("router exposition missing %q", want)
		}
	}
}

func TestTraceEndpointDisabledRouterStillServes(t *testing.T) {
	srv, hs := newTestReplica(t, 0)
	defer hs.Close()
	defer srv.Close()
	router, err := NewRouter([]string{hs.URL}, RouterConfig{Pool: fastPool(), TraceCapacity: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	if router.trace != nil {
		t.Fatal("negative TraceCapacity should disable tracing")
	}
	req := httptest.NewRequest(http.MethodGet, "/v2/trace", nil)
	rec := httptest.NewRecorder()
	router.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("HTTP %d", rec.Code)
	}
	var events []any
	if err := json.NewDecoder(rec.Body).Decode(&events); err != nil && rec.Body.Len() > 0 {
		t.Fatalf("disabled trace endpoint body not JSON: %v", err)
	}
}

// TestReplicaStageTraceThroughRouter exercises the full stack — router
// in front of a traced replica — and asserts the replica's trace holds
// the request's stage spans on the propagated id and validates.
func TestReplicaStageTraceThroughRouter(t *testing.T) {
	rec := trace.NewRing(DefaultTraceCapacity)
	cfg := tinyConfig(t)
	cfg.Trace = rec
	srv := newTestServer(t, cfg)
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	router, err := NewRouter([]string{hs.URL}, RouterConfig{Pool: fastPool()})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()

	httpRec, _ := postInfer(t, router.Handler(), models.NameViTTiny,
		InferRequestJSON{ID: "e2e-1", Items: 1}, nil)
	if httpRec.Code != http.StatusOK {
		t.Fatalf("HTTP %d: %s", httpRec.Code, httpRec.Body)
	}
	if got := httpRec.Header().Get(RequestIDHeader); got != "e2e-1" {
		t.Errorf("router echoed id %q, want e2e-1", got)
	}
	// Give the replica's respond span a moment (written after the
	// response body).
	deadline := time.Now().Add(time.Second)
	stages := map[string]bool{}
	for time.Now().Before(deadline) {
		stages = map[string]bool{}
		for _, sp := range rec.Spans() {
			if sp.Track == "req:e2e-1" {
				stages[sp.Name] = true
			}
		}
		if len(stages) >= 5 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	for _, stage := range []string{"admit", "queue", "batch-assembly", "compute", "respond"} {
		if !stages[stage] {
			t.Errorf("replica trace missing stage %q for propagated id; got %v", stage, stages)
		}
	}
	if err := rec.Validate(); err != nil {
		t.Errorf("replica trace invalid: %v", err)
	}
}

// TestRequestSpansShareTheirArgs: a traced request's five stage spans
// cost one track name and two args maps (the stages', and compute's
// with batch_items), not a name and a map each.
func TestRequestSpansShareTheirArgs(t *testing.T) {
	rec := trace.NewRing(16)
	rt := &modelRuntime{cfg: ModelConfig{Name: "ViT_Tiny", Trace: rec}}
	now := time.Now()
	p := &pending{req: Request{ID: "spans-1"}, class: ClassOnline, tenant: "farm-a", preprocSec: 1e-3,
		submitAt: now, admitted: now.Add(time.Millisecond), enqueued: now.Add(2 * time.Millisecond), recvAt: now.Add(3 * time.Millisecond)}
	record := func() { rt.recordRequestSpans(p, now.Add(4*time.Millisecond), now.Add(5*time.Millisecond), 300) }
	for i := 0; i < 4; i++ {
		record() // fill the ring: a full ring overwrites in place
	}
	allocs := testing.AllocsPerRun(100, record)
	rt.cfg.Trace = trace.NewRecorder()
	record()
	spans := rt.cfg.Trace.Spans()
	if len(spans) != 5 || spans[3].Name != "batch-assembly" || spans[3].Args["batch_items"] != nil ||
		spans[4].Name != "compute" || spans[4].Args["batch_items"] != 300 || spans[4].Args["tenant"] != "farm-a" {
		t.Fatalf("spans %+v: want five, ending in batch-assembly and compute, batch_items on compute only", spans)
	}
	if allocs > 12 {
		t.Errorf("%.0f allocations for one request's spans, want at most 12", allocs)
	}
	t.Logf("%.0f allocations for one request's five spans", allocs)
}
