package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"harvest/internal/engine"
	"harvest/internal/hw"
	"harvest/internal/models"
	"harvest/internal/stats"
	"harvest/internal/tensor"
)

// failingBackend simulates a crashed real-compute backend.
type failingBackend struct{ calls int }

func (f *failingBackend) Forward(*tensor.Tensor) (*tensor.Tensor, error) {
	f.calls++
	return nil, errors.New("backend crashed")
}

func TestBackendFailurePropagatesToAllFusedRequests(t *testing.T) {
	eng, err := engine.New(hw.A100(), models.NameViTTiny)
	if err != nil {
		t.Fatal(err)
	}
	fb := &failingBackend{}
	eng.Real = fb
	s := newTestServer(t, ModelConfig{
		Name: "crash", Engine: eng, MaxBatch: 16,
		QueueDelay: 20 * time.Millisecond, InputSize: 32,
	})
	in := make([]float32, 3*32*32)
	var wg sync.WaitGroup
	failures := make(chan error, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := s.Submit(context.Background(), &Request{Model: "crash", Inputs: [][]float32{in}})
			failures <- err
		}()
	}
	wg.Wait()
	close(failures)
	for err := range failures {
		if err == nil {
			t.Error("request succeeded despite backend crash")
		} else if !strings.Contains(err.Error(), "backend crashed") {
			t.Errorf("error lost its cause: %v", err)
		}
	}
	// The batcher must keep running after the failure.
	if _, err := s.Submit(context.Background(), &Request{Model: "crash", Items: 2}); err != nil {
		t.Errorf("server wedged after backend failure: %v", err)
	}
}

func TestSlowClientContextCancel(t *testing.T) {
	eng, err := engine.New(hw.A100(), models.NameViTTiny)
	if err != nil {
		t.Fatal(err)
	}
	// A very long batching window holds the request in the queue. A
	// cancel (not a deadline — a context deadline would legitimately
	// close the batching window early) must withdraw it promptly.
	s := newTestServer(t, ModelConfig{
		Name: "slow", Engine: eng, MaxBatch: 64, QueueDelay: 10 * time.Second,
	})
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err = s.Submit(ctx, &Request{Model: "slow", Items: 1})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("expected context cancelled, got %v", err)
	}
	if time.Since(start) > time.Second {
		t.Error("cancellation did not fire promptly")
	}
}

func TestMalformedHTTPRequests(t *testing.T) {
	images, _ := preprocConfig(t)
	images.MaxImageBytes = 1 << 10
	s := newTestServer(t, tinyConfig(t), images)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cases := []struct {
		method, path, body string
		wantStatus         int
	}{
		{"POST", "/v2/models/ViT_Tiny/infer", "{not json", http.StatusBadRequest},
		{"POST", "/v2/models/ViT_Tiny/infer", `{"items": -5}`, http.StatusBadRequest},
		{"POST", "/v2/models/ViT_Tiny/infer", `{"items": 3, "inputs": [[0.1], [0.2]]}`, http.StatusBadRequest},
		// The mux redirects the empty segment away; the client follows
		// with a GET, and /v2/models/ has no GET surface.
		{"POST", "/v2/models//infer", `{"items": 1}`, http.StatusMethodNotAllowed},
		{"POST", "/v2/models/ViT_Tiny/predict", `{"items": 1}`, http.StatusNotFound},
		{"GET", "/v2/models/ViT_Tiny/stats", "", http.StatusMethodNotAllowed}, // removed endpoint
		{"POST", "/v2/models/ViT_Tiny/infer", `{"items": 1, "id": "` + strings.Repeat("x", 129) + `"}`, http.StatusBadRequest},
		{"POST", "/v2/models/ViT_Tiny/infer", `{"items": 1, "id": "a\nb"}`, http.StatusBadRequest},
	}
	for i, c := range cases {
		req, err := http.NewRequest(c.method, ts.URL+c.path, strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		resp.Body.Close()
		if resp.StatusCode != c.wantStatus {
			t.Errorf("case %d (%s %s): status %d, want %d",
				i, c.method, c.path, resp.StatusCode, c.wantStatus)
		}
	}

	// An image over the model's MaxImageBytes is a 413 in either framing.
	// As images_b64 it is found once the body has been read and decoded;
	// as a binary part it is refused on the JSON header alone
	// (TestWireRefusesBadFrames checks that no payload byte is read).
	oversize := InferRequestJSON{Images: [][]byte{make([]byte, 1<<10+1)}}
	plain, err := json.Marshal(oversize)
	if err != nil {
		t.Fatal(err)
	}
	for name, body := range map[string]wireBody{"images_b64": {-1, plain}, "binary part": binaryBody(t, oversize)} {
		if w := postWire(s.Handler(), "imagenet", body); w.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("oversize image as %s: status %d, want 413", name, w.Code)
		}
	}
}

// TestStatsEndpoint reads the request/item/batch counters the way a
// client does: from GET /v2/metrics.
func TestStatsEndpoint(t *testing.T) {
	s := newTestServer(t, tinyConfig(t))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := NewClient(ts.URL)
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if _, err := client.Infer(ctx, models.NameViTTiny,
			InferRequestJSON{ID: fmt.Sprintf("q%d", i), Items: 2}); err != nil {
			t.Fatal(err)
		}
	}
	mj, err := client.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(mj.Models) != 1 {
		t.Fatalf("metrics models %v", mj.Models)
	}
	st := mj.Models[0]
	if st.Items != 6 {
		t.Errorf("stats served %d items, want 6", st.Items)
	}
	if st.Requests != 3 {
		t.Errorf("stats served %d requests, want 3", st.Requests)
	}
	if st.Batches < 1 || st.Batches > 3 {
		t.Errorf("stats batches %d", st.Batches)
	}
}

func TestClientAgainstDeadServer(t *testing.T) {
	client := NewClient("http://127.0.0.1:1") // nothing listens here
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	if client.Ready(ctx) {
		t.Error("dead server reported ready")
	}
	if err := client.WaitReady(ctx); err == nil {
		t.Error("WaitReady succeeded against dead server")
	}
	if _, err := client.Models(ctx); err == nil {
		t.Error("Models succeeded against dead server")
	}
	if _, err := client.Infer(ctx, "m", InferRequestJSON{Items: 1}); err == nil {
		t.Error("Infer succeeded against dead server")
	}
	if _, err := client.Metrics(ctx); err == nil {
		t.Error("Metrics succeeded against dead server")
	}
}

// TestDrainTimeoutFailsStragglers verifies that Close's graceful drain
// gives up after DrainTimeout: batches dispatched in time are served,
// stragglers fail with ErrServerClosed, and Close still returns.
func TestDrainTimeoutFailsStragglers(t *testing.T) {
	eng, err := engine.New(hw.A100(), models.NameViTTiny)
	if err != nil {
		t.Fatal(err)
	}
	real, err := models.NewViTModel(models.MicroViTConfig(4), stats.NewRNG(7))
	if err != nil {
		t.Fatal(err)
	}
	// Each batch holds the single instance for ~80 ms, far past the
	// 40 ms drain budget.
	eng.Real = &slowBackend{inner: real, delay: 80 * time.Millisecond}
	s := newTestServer(t, ModelConfig{
		Name: "sluggish", Engine: eng, MaxBatch: 1, InputSize: 32,
		QueueDelay: time.Millisecond, DrainTimeout: 40 * time.Millisecond,
	})
	in := make([]float32, 3*32*32)
	const n = 8
	var wg sync.WaitGroup
	outcomes := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := s.Submit(context.Background(), &Request{Model: "sluggish", Inputs: [][]float32{in}})
			outcomes <- err
		}()
	}
	time.Sleep(30 * time.Millisecond) // first batch mid-execution
	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return after the drain timeout")
	}
	wg.Wait()
	close(outcomes)
	served, failed := 0, 0
	for err := range outcomes {
		switch {
		case err == nil:
			served++
		case errors.Is(err, ErrServerClosed):
			failed++
		default:
			t.Errorf("unexpected outcome: %v", err)
		}
	}
	if served == 0 {
		t.Error("drain served nothing despite in-flight batches")
	}
	if failed == 0 {
		t.Error("no straggler failed despite the expired drain timeout")
	}
	if served+failed != n {
		t.Errorf("outcomes %d+%d != %d submissions", served, failed, n)
	}
}

// TestCancelAfterDispatchStillGetsOutcome pins the claim semantics: a
// context that ends after a batch has claimed the request waits for
// the batch's outcome instead of abandoning an executing slot.
func TestCancelAfterDispatchStillGetsOutcome(t *testing.T) {
	eng, err := engine.New(hw.A100(), models.NameViTTiny)
	if err != nil {
		t.Fatal(err)
	}
	real, err := models.NewViTModel(models.MicroViTConfig(4), stats.NewRNG(8))
	if err != nil {
		t.Fatal(err)
	}
	eng.Real = &slowBackend{inner: real, delay: 60 * time.Millisecond}
	s := newTestServer(t, ModelConfig{
		Name: "claimed", Engine: eng, MaxBatch: 4, InputSize: 32,
		QueueDelay: time.Millisecond,
	})
	in := make([]float32, 3*32*32)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	resp, err := s.Submit(ctx, &Request{Model: "claimed", Inputs: [][]float32{in}})
	if err != nil {
		t.Fatalf("claimed request lost its outcome: %v", err)
	}
	if len(resp.Outputs) != 1 {
		t.Errorf("outputs %v", resp.Outputs)
	}
	m, err := s.MetricsFor("claimed")
	if err != nil {
		t.Fatal(err)
	}
	if m.Cancelled != 0 {
		t.Errorf("cancelled counter %d for a claimed request, want 0", m.Cancelled)
	}
}

func TestOOMViaOversizedExplicitMaxBatch(t *testing.T) {
	// A config whose MaxBatch exceeds the engine's memory limit lets a
	// fused batch OOM at execution time; the error must reach every
	// caller and the server must survive.
	eng, err := engine.New(hw.Jetson(), models.NameViTBase)
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, ModelConfig{
		Name: "oom", Engine: eng, MaxBatch: 128, // engine limit is 8
		QueueDelay: 20 * time.Millisecond,
	})
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := s.Submit(context.Background(), &Request{Model: "oom", Items: 16})
			errs <- err
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if !errors.Is(err, engine.ErrOOM) {
			t.Errorf("expected OOM, got %v", err)
		}
	}
	// Small request still works afterwards.
	if _, err := s.Submit(context.Background(), &Request{Model: "oom", Items: 4}); err != nil {
		t.Errorf("server wedged after OOM: %v", err)
	}
}
