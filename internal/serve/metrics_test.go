package serve

import (
	"context"
	"fmt"
	"net/http/httptest"
	"testing"
	"time"

	"harvest/internal/engine"
	"harvest/internal/hw"
	"harvest/internal/models"
	"harvest/internal/stats"
)

// TestMetricsEndpointReconcilesWithStats drives traffic over HTTP and
// checks that GET /v2/metrics agrees with the in-process MetricsFor on
// the activity counters.
func TestMetricsEndpointReconcilesWithStats(t *testing.T) {
	s := newTestServer(t, tinyConfig(t))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := NewClient(ts.URL)
	ctx := context.Background()

	const n = 5
	for i := 0; i < n; i++ {
		if _, err := client.Infer(ctx, models.NameViTTiny,
			InferRequestJSON{ID: fmt.Sprintf("m%d", i), Items: 1 + i%3}); err != nil {
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
	m := mj.Models[0]
	st, err := s.MetricsFor(models.NameViTTiny)
	if err != nil {
		t.Fatal(err)
	}
	if m.Model != st.Model || m.Requests != st.Requests ||
		m.Items != st.Items || m.Batches != st.Batches {
		t.Errorf("metrics %+v do not reconcile with stats %+v", m, st)
	}
	if m.Requests != n {
		t.Errorf("requests %d, want %d", m.Requests, n)
	}
	if m.Errors != 0 || m.Cancelled != 0 || m.QueueDepth != 0 {
		t.Errorf("unexpected failure counters in %+v", m)
	}
	if m.QueueMs.Count != n || m.ComputeMs.Count != int(m.Batches) {
		t.Errorf("latency sample counts %+v", m)
	}
	for _, l := range []LatencySummaryJSON{m.QueueMs, m.ComputeMs} {
		if l.P50Ms > l.P95Ms || l.P95Ms > l.P99Ms || l.P99Ms > l.MaxMs {
			t.Errorf("percentiles out of order: %+v", l)
		}
	}
	if m.ComputeMs.P50Ms <= 0 {
		t.Errorf("compute p50 %v, want > 0", m.ComputeMs.P50Ms)
	}
}

// TestQueueTimeExcludesRealComputeTime is the regression test for the
// queue-accounting bug: with TimeScale == 0 and a real backend, queue
// time used to absorb the backend's entire wall time.
func TestQueueTimeExcludesRealComputeTime(t *testing.T) {
	eng, err := engine.New(hw.A100(), models.NameViTTiny)
	if err != nil {
		t.Fatal(err)
	}
	real, err := models.NewViTModel(models.MicroViTConfig(4), stats.NewRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	const delay = 60 * time.Millisecond
	eng.Real = &slowBackend{inner: real, delay: delay}
	s := newTestServer(t, ModelConfig{
		Name: "slowreal", Engine: eng, MaxBatch: 4, InputSize: 32,
		QueueDelay: time.Millisecond,
	})
	in := make([]float32, 3*32*32)
	resp, err := s.Submit(context.Background(), &Request{Model: "slowreal", Inputs: [][]float32{in}})
	if err != nil {
		t.Fatal(err)
	}
	// The lone request waits only the 1 ms batching window; before the
	// fix it was charged the backend's 60 ms as queueing.
	if resp.QueueSeconds >= delay.Seconds()/2 {
		t.Errorf("queue time %.1f ms includes real compute time", resp.QueueSeconds*1000)
	}
	m, err := s.MetricsFor("slowreal")
	if err != nil {
		t.Fatal(err)
	}
	delayMs := delay.Seconds() * 1000
	if got := m.ComputeMs.P50Ms; got < delayMs {
		t.Errorf("measured compute p50 %.1f ms, want >= %.0f ms", got, delayMs)
	}
	if got := m.QueueMs.P50Ms; got >= delayMs/2 {
		t.Errorf("queue latency p50 %.1f ms includes compute", got)
	}
}

// TestMetricsErrorCounting checks the error counter via a crashing
// backend.
func TestMetricsErrorCounting(t *testing.T) {
	eng, err := engine.New(hw.A100(), models.NameViTTiny)
	if err != nil {
		t.Fatal(err)
	}
	eng.Real = &failingBackend{}
	s := newTestServer(t, ModelConfig{
		Name: "crashy", Engine: eng, MaxBatch: 8, InputSize: 32,
		QueueDelay: time.Millisecond,
	})
	in := make([]float32, 3*32*32)
	for i := 0; i < 3; i++ {
		if _, err := s.Submit(context.Background(), &Request{Model: "crashy", Inputs: [][]float32{in}}); err == nil {
			t.Fatal("crashing backend produced a response")
		}
	}
	m, err := s.MetricsFor("crashy")
	if err != nil {
		t.Fatal(err)
	}
	if m.Errors != 3 || m.Requests != 0 || m.Items != 0 {
		t.Errorf("error accounting %+v", m)
	}
	if m.Batches == 0 {
		t.Error("failed batches not counted")
	}
}

func TestMetricsForUnknownModel(t *testing.T) {
	s := newTestServer(t, tinyConfig(t))
	if _, err := s.MetricsFor("ghost"); err == nil {
		t.Error("metrics for unknown model succeeded")
	}
	if got := len(s.Metrics()); got != 1 {
		t.Errorf("metrics list length %d, want 1", got)
	}
}
