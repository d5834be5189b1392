package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"harvest/internal/engine"
	"harvest/internal/hw"
	"harvest/internal/models"
	"harvest/internal/stats"
	"harvest/internal/trace"
)

func newTestServer(t *testing.T, cfgs ...ModelConfig) *Server {
	t.Helper()
	s := NewServer()
	t.Cleanup(s.Close)
	for _, cfg := range cfgs {
		if err := s.Register(cfg); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func tinyConfig(t *testing.T) ModelConfig {
	t.Helper()
	eng, err := engine.New(hw.A100(), models.NameViTTiny)
	if err != nil {
		t.Fatal(err)
	}
	return ModelConfig{Name: models.NameViTTiny, Engine: eng, MaxBatch: 64,
		QueueDelay: time.Millisecond}
}

func TestRegisterValidation(t *testing.T) {
	s := NewServer()
	defer s.Close()
	if err := s.Register(ModelConfig{}); err == nil {
		t.Error("empty config accepted")
	}
	eng, err := engine.New(hw.A100(), models.NameViTTiny)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Register(ModelConfig{Name: "m", Engine: eng}); err != nil {
		t.Fatal(err)
	}
	if err := s.Register(ModelConfig{Name: "m", Engine: eng}); !errors.Is(err, ErrDuplicateName) {
		t.Errorf("duplicate registration: %v", err)
	}
}

func TestSubmitBasic(t *testing.T) {
	s := newTestServer(t, tinyConfig(t))
	resp, err := s.Submit(context.Background(), &Request{ID: "r1", Model: models.NameViTTiny, Items: 4})
	if err != nil {
		t.Fatal(err)
	}
	if resp.ID != "r1" || resp.Items != 4 || resp.ComputeSeconds <= 0 {
		t.Errorf("response %+v", resp)
	}
	if resp.BatchSize < 4 {
		t.Errorf("batch size %d < request items", resp.BatchSize)
	}
}

func TestSubmitErrors(t *testing.T) {
	s := newTestServer(t, tinyConfig(t))
	ctx := context.Background()
	if _, err := s.Submit(ctx, &Request{Model: "ghost", Items: 1}); !errors.Is(err, ErrUnknownModel) {
		t.Errorf("unknown model: %v", err)
	}
	if _, err := s.Submit(ctx, &Request{Model: models.NameViTTiny}); !errors.Is(err, ErrEmptyRequest) {
		t.Errorf("empty request: %v", err)
	}
	if _, err := s.Submit(ctx, &Request{Model: models.NameViTTiny, Items: 1000}); !errors.Is(err, ErrTooManyItems) {
		t.Errorf("oversized request: %v", err)
	}
}

func TestDynamicBatchingFusesRequests(t *testing.T) {
	cfg := tinyConfig(t)
	cfg.QueueDelay = 50 * time.Millisecond
	s := newTestServer(t, cfg)
	const n = 8
	var wg sync.WaitGroup
	fused := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := s.Submit(context.Background(),
				&Request{ID: fmt.Sprintf("r%d", i), Model: models.NameViTTiny, Items: 2})
			if err != nil {
				t.Error(err)
				return
			}
			fused[i] = resp.BatchSize
		}(i)
	}
	wg.Wait()
	// With a 50 ms window and instant submissions, most requests must
	// have been fused into batches larger than their own 2 items.
	maxBatch := 0
	for _, b := range fused {
		if b > maxBatch {
			maxBatch = b
		}
	}
	if maxBatch <= 2 {
		t.Errorf("dynamic batching never fused requests (max batch %d)", maxBatch)
	}
	st, err := s.MetricsFor(models.NameViTTiny)
	if err != nil {
		t.Fatal(err)
	}
	if st.Items != 2*n {
		t.Errorf("served %d items, want %d", st.Items, 2*n)
	}
	if st.Requests != n {
		t.Errorf("served %d requests, want %d", st.Requests, n)
	}
	if st.Batches >= n {
		t.Errorf("ran %d batches for %d requests; batching ineffective", st.Batches, n)
	}
}

func TestBatcherRespectsMaxBatch(t *testing.T) {
	cfg := tinyConfig(t)
	cfg.MaxBatch = 4
	cfg.QueueDelay = 50 * time.Millisecond
	s := newTestServer(t, cfg)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var batches []int
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := s.Submit(context.Background(), &Request{Model: models.NameViTTiny, Items: 3})
			if err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			batches = append(batches, resp.BatchSize)
			mu.Unlock()
		}()
	}
	wg.Wait()
	for _, b := range batches {
		if b > 4 {
			t.Errorf("fused batch %d exceeds max batch 4", b)
		}
	}
}

func TestContextCancellation(t *testing.T) {
	s := newTestServer(t, tinyConfig(t))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := s.Submit(ctx, &Request{Model: models.NameViTTiny, Items: 1})
	if err == nil {
		t.Error("cancelled context accepted")
	}
}

func TestMultiInstanceAndTimeScale(t *testing.T) {
	eng, err := engine.New(hw.A100(), models.NameViTSmall)
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, ModelConfig{
		Name: "multi", Engine: eng, MaxBatch: 8,
		QueueDelay: time.Millisecond, Instances: 4, TimeScale: 0.1,
	})
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := s.Submit(context.Background(), &Request{Model: "multi", Items: 8}); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	st, err := s.MetricsFor("multi")
	if err != nil {
		t.Fatal(err)
	}
	if st.Items != 128 {
		t.Errorf("served %d items, want 128", st.Items)
	}
	if st.Requests != 16 {
		t.Errorf("served %d requests, want 16", st.Requests)
	}
}

func TestServerCloseRejectsNewWork(t *testing.T) {
	s := NewServer()
	eng, err := engine.New(hw.A100(), models.NameViTTiny)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Register(ModelConfig{Name: "m", Engine: eng, QueueDelay: time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if _, err := s.Submit(context.Background(), &Request{Model: "m", Items: 1}); !errors.Is(err, ErrServerClosed) {
		t.Errorf("submit after close: %v", err)
	}
	if err := s.Register(ModelConfig{Name: "m2", Engine: eng}); !errors.Is(err, ErrServerClosed) {
		t.Errorf("register after close: %v", err)
	}
	s.Close() // double close must be safe
}

func TestRealBackendThroughServer(t *testing.T) {
	eng, err := engine.New(hw.A100(), models.NameViTTiny)
	if err != nil {
		t.Fatal(err)
	}
	const classes = 4
	real, err := models.NewViTModel(models.MicroViTConfig(classes), stats.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	eng.Real = real
	s := newTestServer(t, ModelConfig{
		Name: "real", Engine: eng, MaxBatch: 8,
		QueueDelay: time.Millisecond, InputSize: 32,
	})
	in := make([]float32, 3*32*32)
	for i := range in {
		in[i] = 0.1
	}
	resp, err := s.Submit(context.Background(), &Request{Model: "real", Inputs: [][]float32{in, in}})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Outputs) != 2 || len(resp.Outputs[0]) != classes {
		t.Fatalf("outputs %v", resp.Outputs)
	}
	// Identical inputs -> identical logits.
	for c := 0; c < classes; c++ {
		if resp.Outputs[0][c] != resp.Outputs[1][c] {
			t.Error("identical inputs produced different logits")
		}
	}
}

func TestModelsAndConfigLookup(t *testing.T) {
	s := newTestServer(t, tinyConfig(t))
	names := s.Models()
	if len(names) != 1 || names[0] != models.NameViTTiny {
		t.Errorf("models %v", names)
	}
	cfg, err := s.ModelConfigFor(models.NameViTTiny)
	if err != nil || cfg.MaxBatch != 64 {
		t.Errorf("config %+v, %v", cfg, err)
	}
	if _, err := s.ModelConfigFor("ghost"); err == nil {
		t.Error("unknown config lookup succeeded")
	}
	if _, err := s.QueueDepth("ghost"); err == nil {
		t.Error("unknown queue-depth lookup succeeded")
	}
}

func TestHTTPEndToEnd(t *testing.T) {
	s := newTestServer(t, tinyConfig(t))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := NewClient(ts.URL)
	ctx := context.Background()

	if err := client.WaitReady(ctx); err != nil {
		t.Fatal(err)
	}
	names, err := client.Models(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || names[0] != models.NameViTTiny {
		t.Errorf("models over HTTP: %v", names)
	}
	resp, err := client.Infer(ctx, models.NameViTTiny, InferRequestJSON{ID: "h1", Items: 3})
	if err != nil {
		t.Fatal(err)
	}
	if resp.ID != "h1" || resp.Items != 3 || resp.ComputeMs <= 0 {
		t.Errorf("http response %+v", resp)
	}
}

func TestHTTPErrors(t *testing.T) {
	s := newTestServer(t, tinyConfig(t))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := NewClient(ts.URL)
	ctx := context.Background()

	if _, err := client.Infer(ctx, "ghost", InferRequestJSON{Items: 1}); err == nil {
		t.Error("unknown model over HTTP succeeded")
	}
	if _, err := client.Infer(ctx, models.NameViTTiny, InferRequestJSON{Items: 0}); err == nil {
		t.Error("empty request over HTTP succeeded")
	}
	if _, err := client.Infer(ctx, models.NameViTTiny, InferRequestJSON{Items: 100000}); err == nil {
		t.Error("oversized request over HTTP succeeded")
	}
}

func TestHTTPRealClassification(t *testing.T) {
	eng, err := engine.New(hw.A100(), models.NameViTTiny)
	if err != nil {
		t.Fatal(err)
	}
	real, err := models.NewViTModel(models.MicroViTConfig(6), stats.NewRNG(2))
	if err != nil {
		t.Fatal(err)
	}
	eng.Real = real
	s := newTestServer(t, ModelConfig{
		Name: "cls", Engine: eng, MaxBatch: 8, QueueDelay: time.Millisecond, InputSize: 32,
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := NewClient(ts.URL)
	in := make([]float32, 3*32*32)
	resp, err := client.Infer(context.Background(), "cls", InferRequestJSON{Inputs: [][]float32{in}})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Classification) != 1 || resp.Classification[0] < 0 || resp.Classification[0] >= 6 {
		t.Errorf("classification %v", resp.Classification)
	}
}

func TestFormatInferPath(t *testing.T) {
	if got := FormatInferPath("ViT_Tiny"); got != "/v2/models/ViT_Tiny/infer" {
		t.Errorf("path %q", got)
	}
}

func TestConcurrentSubmitStress(t *testing.T) {
	cfg := tinyConfig(t)
	cfg.Instances = 2
	s := newTestServer(t, cfg)
	var wg sync.WaitGroup
	errs := make(chan error, 200)
	for i := 0; i < 200; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, err := s.Submit(context.Background(),
				&Request{ID: fmt.Sprintf("s%d", i), Model: models.NameViTTiny, Items: 1 + i%4})
			if err != nil {
				errs <- err
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("stress submit failed: %v", err)
	}
	st, err := s.MetricsFor(models.NameViTTiny)
	if err != nil {
		t.Fatal(err)
	}
	var wantItems int64
	for i := 0; i < 200; i++ {
		wantItems += int64(1 + i%4)
	}
	if st.Items != wantItems {
		t.Errorf("item conservation violated: served %d items, want %d", st.Items, wantItems)
	}
	if st.Requests != 200 {
		t.Errorf("request conservation violated: served %d requests, want 200", st.Requests)
	}
}

func TestServerTraceRecordsBatches(t *testing.T) {
	rec := trace.NewRecorder()
	cfg := tinyConfig(t)
	cfg.Trace = rec
	s := newTestServer(t, cfg)
	for i := 0; i < 3; i++ {
		if _, err := s.Submit(context.Background(),
			&Request{ID: fmt.Sprintf("t%d", i), Model: models.NameViTTiny, Items: 2}); err != nil {
			t.Fatal(err)
		}
	}
	if rec.Len() == 0 {
		t.Fatal("no spans recorded")
	}
	batches, reqSpans := 0, 0
	for _, sp := range rec.Spans() {
		if sp.Start < 0 {
			t.Errorf("span %q on %q starts at %v; wall-clock spans must not be negative", sp.Name, sp.Track, sp.Start)
		}
		if sp.Duration < 0 {
			t.Errorf("span %q duration %v", sp.Name, sp.Duration)
		}
		switch {
		case sp.Track == models.NameViTTiny:
			// Batch spans on the instance track.
			batches++
			if sp.Args["items"].(int) <= 0 {
				t.Errorf("batch span args %v", sp.Args)
			}
			if _, ok := sp.Args["modeled_seconds"]; !ok {
				t.Errorf("batch span missing modeled_seconds: %v", sp.Args)
			}
		case strings.HasPrefix(sp.Track, "req:t"):
			reqSpans++
		default:
			t.Errorf("span on unexpected track %q", sp.Track)
		}
	}
	if batches == 0 {
		t.Error("no batch spans on the model track")
	}
	// Each served request records its stage decomposition.
	if reqSpans < 3*4 {
		t.Errorf("%d request-stage spans, want >= %d", reqSpans, 3*4)
	}
	// Pure simulation (TimeScale 0) must still produce a consistent
	// timeline: this is the regression test for batch spans whose start
	// was back-computed from modeled durations and could go negative or
	// overlap.
	if err := rec.Validate(); err != nil {
		t.Errorf("trace invalid: %v", err)
	}
}
