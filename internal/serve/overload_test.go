package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"harvest/internal/engine"
	"harvest/internal/hw"
	"harvest/internal/models"
	"harvest/internal/stats"
	"harvest/internal/trace"
)

// waitQueueDepth polls a model's queue depth until it reaches at least
// want: that many requests are admitted and not yet dispatched.
func waitQueueDepth(t *testing.T, s *Server, model string, want int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		depth, err := s.QueueDepth(model)
		if err != nil {
			t.Fatal(err)
		}
		if depth >= want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("queue depth never reached %d", want)
}

// waitLaned polls until a model's lanes hold at least want items. A
// request is counted in QueueDepth from admission, a moment before it
// reaches its lane and the batcher can see it.
func waitLaned(t *testing.T, s *Server, model string, want int64) {
	t.Helper()
	rt, err := s.runtime(model)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		rt.qmu.Lock()
		items := rt.sched.backlogItemsAtOrAbove(ClassOffline) // every lane
		rt.qmu.Unlock()
		if items >= want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("lanes never held %d items", want)
}

// TestQueueFullShedsImmediately pins the admission-control contract: a
// full queue rejects with ErrOverloaded without blocking, the shed
// request is counted, and graceful drain still serves everything that
// was admitted.
func TestQueueFullShedsImmediately(t *testing.T) {
	cfg := tinyConfig(t)
	cfg.QueueDelay = 10 * time.Second // hold admitted work in the batcher
	cfg.MaxQueueDepth = 2
	s := newTestServer(t, cfg)

	const admitted = 2
	var wg sync.WaitGroup
	results := make(chan error, admitted)
	for i := 0; i < admitted; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, err := s.Submit(context.Background(),
				&Request{ID: fmt.Sprintf("a%d", i), Model: models.NameViTTiny, Items: 1})
			results <- err
		}(i)
	}
	waitQueueDepth(t, s, models.NameViTTiny, admitted)

	start := time.Now()
	_, err := s.Submit(context.Background(), &Request{Model: models.NameViTTiny, Items: 1})
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("full queue returned %v, want ErrOverloaded", err)
	}
	if time.Since(start) > time.Second {
		t.Error("overloaded rejection blocked instead of failing fast")
	}
	m, err := s.MetricsFor(models.NameViTTiny)
	if err != nil {
		t.Fatal(err)
	}
	if m.Shed != 1 {
		t.Errorf("shed counter %d, want 1", m.Shed)
	}

	// Over HTTP the shed carries a Retry-After, and a router in front
	// of the shedding replica passes that hint on unchanged: a second
	// added per hop would multiply every client's backoff.
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	router, err := NewRouter([]string{hs.URL}, RouterConfig{Pool: fastPool()})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	direct, _ := postInfer(t, s.Handler(), models.NameViTTiny, InferRequestJSON{Items: 1}, nil)
	routed, _ := postInfer(t, router.Handler(), models.NameViTTiny, InferRequestJSON{Items: 1}, nil)
	if direct.Code != http.StatusTooManyRequests || routed.Code != http.StatusTooManyRequests {
		t.Fatalf("full queue over HTTP: replica %d, router %d, want 429 from both", direct.Code, routed.Code)
	}
	if d, r := direct.Header().Get("Retry-After"), routed.Header().Get("Retry-After"); d == "" || r != d {
		t.Errorf("Retry-After: replica %q, through the router %q, want equal", d, r)
	}

	// Drain: everything admitted is served, the shed request is not.
	s.Close()
	wg.Wait()
	close(results)
	for err := range results {
		if err != nil {
			t.Errorf("admitted request failed during drain: %v", err)
		}
	}
	if got := requestsServed(t, s); got != admitted {
		t.Errorf("drain served %d requests, want %d", got, admitted)
	}
	if _, err := s.Submit(context.Background(), &Request{Model: models.NameViTTiny, Items: 1}); !errors.Is(err, ErrServerClosed) {
		t.Errorf("post-close submit returned %v, want ErrServerClosed", err)
	}
}

// TestDeadlineExpiredEvictedWithoutBatchSlot verifies that a request
// whose deadline cannot be met is shed with ErrDeadlineExpired and
// never occupies a dispatched batch slot, while deadline-free requests
// in the same window are served.
func TestDeadlineExpiredEvictedWithoutBatchSlot(t *testing.T) {
	// Jetson ViT_Base at TimeScale 1 models tens of milliseconds per
	// batch, so a ~2 ms deadline is a guaranteed miss.
	eng, err := engine.New(hw.Jetson(), models.NameViTBase)
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, ModelConfig{
		Name: "rt", Engine: eng, MaxBatch: 8,
		QueueDelay: 30 * time.Millisecond, TimeScale: 1,
	})

	doomed := make(chan error, 1)
	go func() {
		_, err := s.Submit(context.Background(), &Request{
			ID: "doomed", Model: "rt", Items: 1,
			Class: ClassRealtime, Deadline: time.Now().Add(2 * time.Millisecond),
		})
		doomed <- err
	}()
	time.Sleep(5 * time.Millisecond)
	resp, err := s.Submit(context.Background(), &Request{ID: "patient", Model: "rt", Items: 2})
	if err != nil {
		t.Fatalf("deadline-free request failed: %v", err)
	}
	if resp.BatchSize != 2 {
		t.Errorf("batch size %d: expired request occupied a dispatched slot", resp.BatchSize)
	}
	if err := <-doomed; !errors.Is(err, ErrDeadlineExpired) {
		t.Errorf("doomed request returned %v, want ErrDeadlineExpired", err)
	}
	m, err := s.MetricsFor("rt")
	if err != nil {
		t.Fatal(err)
	}
	if m.Expired != 1 {
		t.Errorf("expired counter %d, want 1", m.Expired)
	}
	if m.Requests != 1 || m.Items != 2 {
		t.Errorf("metrics %+v: want exactly the patient request served", m)
	}
}

// TestRealtimeBudgetAppliesByDefault verifies the class-to-SLO mapping:
// a realtime request with no explicit deadline inherits the model's
// realtime budget and is shed once that budget is unmeetable.
func TestRealtimeBudgetAppliesByDefault(t *testing.T) {
	eng, err := engine.New(hw.Jetson(), models.NameViTBase)
	if err != nil {
		t.Fatal(err)
	}
	// Budget far below the modeled Jetson ViT_Base batch latency at
	// TimeScale 1: the implicit deadline can never be met.
	s := newTestServer(t, ModelConfig{
		Name: "rt", Engine: eng, MaxBatch: 8,
		QueueDelay: time.Millisecond, TimeScale: 1,
		RealtimeBudget: 2 * time.Millisecond,
	})
	_, err = s.Submit(context.Background(), &Request{Model: "rt", Items: 1, Class: ClassRealtime})
	if !errors.Is(err, ErrDeadlineExpired) {
		t.Errorf("realtime request returned %v, want ErrDeadlineExpired via class budget", err)
	}
	// Offline class carries no implicit budget and is served.
	if _, err := s.Submit(context.Background(), &Request{Model: "rt", Items: 1, Class: ClassOffline}); err != nil {
		t.Errorf("offline request failed: %v", err)
	}
}

// TestPriorityOrderingUnderSustainedOverload is the live end of the
// lane-priority cases in TestSchedulerNext: it holds the single
// instance busy, queues offline work first and realtime work after, and
// checks that every realtime request executes before any offline one
// and that the per-class queue latency shows it.
func TestPriorityOrderingUnderSustainedOverload(t *testing.T) {
	eng, err := engine.New(hw.Jetson(), models.NameViTTiny)
	if err != nil {
		t.Fatal(err)
	}
	real, err := models.NewViTModel(models.MicroViTConfig(4), stats.NewRNG(11))
	if err != nil {
		t.Fatal(err)
	}
	gate := &gatedBackend{inner: real, entered: make(chan struct{}, 1), open: make(chan struct{})}
	eng.Real = gate
	rec := trace.NewRecorder()
	s := newTestServer(t, ModelConfig{
		Name: "lanes", Engine: eng, MaxBatch: 1, InputSize: 32,
		QueueDelay: time.Millisecond, TimeScale: 1, // completions spaced a batch apart
		RealtimeBudget:  -1, // isolate lane priority from deadline shedding
		AntiStarveEvery: -1, // and from the anti-starvation valve
		Trace:           rec,
	})
	// Opened before Close on every path, so a failed check cannot leave
	// the drain waiting on a held instance.
	open := sync.OnceFunc(func() { close(gate.open) })
	t.Cleanup(open)

	var wg sync.WaitGroup
	submit := func(class Class, id string) {
		defer wg.Done()
		if _, err := s.Submit(context.Background(),
			&Request{ID: id, Model: "lanes", Items: 1, Class: class}); err != nil {
			t.Errorf("%s: %v", id, err)
		}
	}

	// Blocker: a tensor request that holds the instance at the gate
	// while the lanes fill up.
	in := make([]float32, 3*32*32)
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := s.Submit(context.Background(),
			&Request{ID: "blocker", Model: "lanes", Inputs: [][]float32{in}}); err != nil {
			t.Errorf("blocker: %v", err)
		}
	}()
	<-gate.entered

	// With the instance held, nothing leaves the queue: the batcher cuts
	// a batch only when an instance is free to run it.
	const perClass = 10
	for i := 0; i < perClass; i++ {
		wg.Add(1)
		go submit(ClassOffline, fmt.Sprintf("off%d", i))
	}
	waitLaned(t, s, "lanes", perClass) // offline fully enqueued first
	for i := 0; i < perClass; i++ {
		wg.Add(1)
		go submit(ClassRealtime, fmt.Sprintf("rt%d", i))
	}
	waitLaned(t, s, "lanes", 2*perClass)
	if depth, err := s.QueueDepth("lanes"); err != nil || depth != 2*perClass {
		t.Errorf("queue depth %d (%v) behind a busy instance, want all %d queued", depth, err, 2*perClass)
	}
	open()
	wg.Wait()

	// Execution order, from each request's compute span.
	var computes []trace.Span
	for _, sp := range rec.Spans() {
		if sp.Name == "compute" && sp.Track != "req:blocker" {
			computes = append(computes, sp)
		}
	}
	sort.Slice(computes, func(i, j int) bool { return computes[i].Start < computes[j].Start })
	order := make([]string, len(computes))
	for i, sp := range computes {
		order[i] = strings.TrimPrefix(sp.Track, "req:")
	}
	if len(order) != 2*perClass {
		t.Fatalf("executed %d requests, want %d: %v", len(order), 2*perClass, order)
	}
	for i, id := range order {
		if rt := strings.HasPrefix(id, "rt"); rt != (i < perClass) {
			t.Fatalf("execution order %v: every realtime request must run before any offline one, "+
				"although realtime arrived last", order)
		}
	}
	m, err := s.MetricsFor("lanes")
	if err != nil {
		t.Fatal(err)
	}
	if m.Shed != 0 || m.Expired != 0 {
		t.Errorf("unexpected shedding during priority test: %+v", m)
	}
	if got := len(m.QueueMsByClass); got < 2 {
		t.Errorf("per-class queue latency has %d classes, want >= 2", got)
	}
}

// TestArrivalsWhileBusyJoinOneBatch checks that the batcher is
// work-conserving with no window: requests that arrive while the only
// instance is busy are not cut into batches ahead of it. They stay
// queued, counted in QueueDepth, and all run in the next batch.
func TestArrivalsWhileBusyJoinOneBatch(t *testing.T) {
	eng, err := engine.New(hw.Jetson(), models.NameViTTiny)
	if err != nil {
		t.Fatal(err)
	}
	real, err := models.NewViTModel(models.MicroViTConfig(4), stats.NewRNG(11))
	if err != nil {
		t.Fatal(err)
	}
	gate := &gatedBackend{inner: real, entered: make(chan struct{}, 1), open: make(chan struct{})}
	eng.Real = gate
	s := newTestServer(t, ModelConfig{Name: "join", Engine: eng, MaxBatch: 8, InputSize: 32})
	open := sync.OnceFunc(func() { close(gate.open) })
	t.Cleanup(open)

	blocked := make(chan error, 1)
	go func() {
		_, err := s.Submit(context.Background(),
			&Request{ID: "blocker", Model: "join", Inputs: [][]float32{make([]float32, 3*32*32)}})
		blocked <- err
	}()
	<-gate.entered

	const n = 6
	sizes := make(chan int, n)
	for i := 0; i < n; i++ {
		go func() {
			resp, err := s.Submit(context.Background(), &Request{ID: fmt.Sprintf("r%d", i), Model: "join", Items: 1})
			if err != nil {
				t.Errorf("r%d: %v", i, err)
				sizes <- 0
				return
			}
			sizes <- resp.BatchSize
		}()
	}
	waitLaned(t, s, "join", n)
	if depth, err := s.QueueDepth("join"); err != nil || depth != n {
		t.Errorf("queue depth %d (%v) behind a busy instance, want %d", depth, err, n)
	}
	open()
	if err := <-blocked; err != nil {
		t.Fatalf("blocker: %v", err)
	}
	for i := 0; i < n; i++ {
		if got := <-sizes; got != n {
			t.Errorf("a request ran in a batch of %d, want all %d arrivals in one", got, n)
		}
	}
}

// TestEstimateWaitCountsQueuedItems prices a backlog by its items,
// not its requests: behind a held instance, one queued 8-item request
// at MaxBatch 8 fills a round, so one more item waits two rounds.
func TestEstimateWaitCountsQueuedItems(t *testing.T) {
	eng, err := engine.New(hw.Jetson(), models.NameViTTiny)
	if err != nil {
		t.Fatal(err)
	}
	real, err := models.NewViTModel(models.MicroViTConfig(4), stats.NewRNG(11))
	if err != nil {
		t.Fatal(err)
	}
	gate := &gatedBackend{inner: real, entered: make(chan struct{}, 1), open: make(chan struct{})}
	eng.Real = gate
	cfg := ModelConfig{Name: "est", Engine: eng, MaxBatch: 8, InputSize: 32}
	s := newTestServer(t, cfg)
	open := sync.OnceFunc(func() { close(gate.open) })
	t.Cleanup(open)

	done := make(chan error, 2)
	go func() {
		_, err := s.Submit(context.Background(),
			&Request{ID: "blocker", Model: "est", Inputs: [][]float32{make([]float32, 3*32*32)}})
		done <- err
	}()
	<-gate.entered
	go func() {
		_, err := s.Submit(context.Background(), &Request{ID: "eight", Model: "est", Items: 8})
		done <- err
	}()
	waitLaned(t, s, "est", 8)

	got, err := s.EstimateWait("est", 1)
	if err != nil {
		t.Fatal(err)
	}
	if want := cfg.execEstimate(8) + cfg.execEstimate(1); got != want {
		t.Errorf("EstimateWait = %v behind an 8-item request, want two rounds, %v (one round is %v)",
			got, want, cfg.execEstimate(2))
	}
	open()
	for range 2 {
		if err := <-done; err != nil {
			t.Error(err)
		}
	}
}

// TestHTTPOverloadEndToEnd is the acceptance scenario: sustained
// offered load far above capacity at TimeScale > 0. The server must
// shed excess work with HTTP 429 + Retry-After instead of blocking,
// evict unmeetable deadlines with 504, keep the outcome ledger exact,
// and keep served realtime queue latency within the deadline.
func TestHTTPOverloadEndToEnd(t *testing.T) {
	eng, err := engine.New(hw.Jetson(), models.NameViTTiny)
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, ModelConfig{
		Name: "edge", Engine: eng, MaxBatch: 4,
		QueueDelay: 2 * time.Millisecond, TimeScale: 5,
		MaxQueueDepth: 4,
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const n = 40
	const deadlineMs = 50
	var served, shed, expired, retryAfterOK atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := fmt.Sprintf(`{"id":"o%d","items":1,"class":"offline"}`, i)
			if i%2 == 0 {
				body = fmt.Sprintf(`{"id":"r%d","items":1,"class":"realtime","deadline_ms":%d}`, i, deadlineMs)
			}
			resp, err := http.Post(ts.URL+FormatInferPath("edge"), "application/json",
				strings.NewReader(body))
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			defer resp.Body.Close()
			switch resp.StatusCode {
			case http.StatusOK:
				served.Add(1)
			case http.StatusTooManyRequests:
				shed.Add(1)
				if ra := resp.Header.Get("Retry-After"); ra != "" && ra != "0" {
					retryAfterOK.Add(1)
				}
			case http.StatusGatewayTimeout:
				expired.Add(1)
			default:
				t.Errorf("request %d: unexpected status %d", i, resp.StatusCode)
			}
		}(i)
	}
	wg.Wait()

	if shed.Load() == 0 {
		t.Error("no request shed despite offered load far above MaxQueueDepth")
	}
	if retryAfterOK.Load() != shed.Load() {
		t.Errorf("%d of %d 429 responses carried a Retry-After hint", retryAfterOK.Load(), shed.Load())
	}
	if total := served.Load() + shed.Load() + expired.Load(); total != n {
		t.Errorf("outcome ledger %d served + %d shed + %d expired != %d submitted",
			served.Load(), shed.Load(), expired.Load(), n)
	}
	m, err := s.MetricsFor("edge")
	if err != nil {
		t.Fatal(err)
	}
	if m.Shed != shed.Load() || m.Expired != expired.Load() || m.Requests != served.Load() {
		t.Errorf("server metrics %+v disagree with client outcomes (%d/%d/%d)",
			m, served.Load(), shed.Load(), expired.Load())
	}
	// Admitted realtime requests must meet their SLO: shedding and
	// deadline eviction keep served realtime queue latency within the
	// deadline budget.
	if sum, ok := m.QueueMsByClass[ClassRealtime.String()]; ok {
		if p99 := sum.P99Ms; p99 > deadlineMs {
			t.Errorf("served realtime p99 queue latency %.2f ms exceeds the %d ms deadline", p99, deadlineMs)
		}
	}
}

// TestHTTPBodyLimit verifies the infer endpoint caps request bodies and
// answers 413 on overflow.
func TestHTTPBodyLimit(t *testing.T) {
	s := newTestServer(t, tinyConfig(t)) // items-only model: ~1 MiB limit
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	huge := strings.Repeat("0.123456,", 1<<18)
	body := fmt.Sprintf(`{"items":1,"inputs":[[%s0.1]]}`, huge)
	resp, err := http.Post(ts.URL+FormatInferPath(models.NameViTTiny), "application/json",
		strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: status %d, want 413", resp.StatusCode)
	}
	// A normal request still fits comfortably.
	resp2, err := http.Post(ts.URL+FormatInferPath(models.NameViTTiny), "application/json",
		strings.NewReader(`{"items":2}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Errorf("normal request after limit check: status %d", resp2.StatusCode)
	}
}

// TestHTTPBadClassRejected verifies class parsing surfaces as 400.
func TestHTTPBadClassRejected(t *testing.T) {
	s := newTestServer(t, tinyConfig(t))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Post(ts.URL+FormatInferPath(models.NameViTTiny), "application/json",
		strings.NewReader(`{"items":1,"class":"warp-speed"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad class: status %d, want 400", resp.StatusCode)
	}
}

// TestClientRetriesOn429 verifies the client backs off and resubmits
// shed requests, honoring the Retry-After hint ("0" = retry
// immediately, no backoff).
func TestClientRetriesOn429(t *testing.T) {
	var calls atomic.Int64
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.Header().Set("Retry-After", "0")
			w.WriteHeader(http.StatusTooManyRequests)
			json.NewEncoder(w).Encode(errorJSON{Error: "overloaded"})
			return
		}
		json.NewEncoder(w).Encode(InferResponseJSON{ID: "ok", Model: "m", Items: 1})
	})
	ts := httptest.NewServer(h)
	defer ts.Close()
	c := NewClient(ts.URL)
	c.RetryBackoff = time.Millisecond
	resp, err := c.Infer(context.Background(), "m", InferRequestJSON{Items: 1})
	if err != nil {
		t.Fatalf("infer after 429s: %v", err)
	}
	if resp.ID != "ok" || calls.Load() != 3 {
		t.Errorf("resp %+v after %d calls, want success on 3rd", resp, calls.Load())
	}

	// With retries disabled, the 429 surfaces as ErrOverloaded.
	calls.Store(0)
	c2 := NewClient(ts.URL)
	c2.MaxRetries = -1
	if _, err := c2.Infer(context.Background(), "m", InferRequestJSON{Items: 1}); !errors.Is(err, ErrOverloaded) {
		t.Errorf("unretried 429 returned %v, want ErrOverloaded", err)
	}
}

// TestClientPropagatesContextDeadline verifies the remaining context
// budget travels as deadline_ms when the body doesn't set one.
func TestClientPropagatesContextDeadline(t *testing.T) {
	var got atomic.Value
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var body InferRequestJSON
		if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
			t.Error(err)
		}
		got.Store(body.DeadlineMs)
		json.NewEncoder(w).Encode(InferResponseJSON{Model: "m", Items: 1})
	})
	ts := httptest.NewServer(h)
	defer ts.Close()
	c := NewClient(ts.URL)
	ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
	defer cancel()
	if _, err := c.Infer(ctx, "m", InferRequestJSON{Items: 1}); err != nil {
		t.Fatal(err)
	}
	ms, _ := got.Load().(float64)
	if ms <= 0 || ms > 500 {
		t.Errorf("propagated deadline_ms %.2f, want in (0, 500]", ms)
	}

	// An explicit body deadline wins over the context deadline.
	if _, err := c.Infer(ctx, "m", InferRequestJSON{Items: 1, DeadlineMs: 1234}); err != nil {
		t.Fatal(err)
	}
	if ms, _ := got.Load().(float64); ms != 1234 {
		t.Errorf("explicit deadline_ms %.2f, want 1234", ms)
	}
}

// TestHugeDeadlineIsServed: a deadline_ms past the largest Duration
// (~9.2e12 ms) is a very long budget, not one that wrapped negative and
// expired on submit — at the replica and through the router's client.
func TestHugeDeadlineIsServed(t *testing.T) {
	srv, hs := newTestReplica(t, 0)
	defer func() { hs.Close(); srv.Close() }()
	router, err := NewRouter([]string{hs.URL}, RouterConfig{Pool: fastPool()})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	huge := InferRequestJSON{Items: 1, DeadlineMs: 1e13}
	direct, _ := postInfer(t, srv.Handler(), models.NameViTTiny, huge, nil)
	routed, _ := postInfer(t, router.Handler(), models.NameViTTiny, huge, nil)
	if direct.Code != http.StatusOK || routed.Code != http.StatusOK {
		t.Errorf("deadline_ms 1e13: replica %d, router %d, want 200 from both", direct.Code, routed.Code)
	}
	if d := MsDuration(-1e13); d != math.MinInt64 {
		t.Errorf("MsDuration(-1e13) = %v, want the smallest Duration", d)
	}
}

// TestParseClass pins the wire names.
func TestParseClass(t *testing.T) {
	for in, want := range map[string]Class{
		"": ClassOnline, "online": ClassOnline,
		"realtime": ClassRealtime, "real-time": ClassRealtime, "REALTIME": ClassRealtime,
		"offline": ClassOffline, "batch": ClassOffline,
	} {
		got, err := ParseClass(in)
		if err != nil || got != want {
			t.Errorf("ParseClass(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseClass("bogus"); !errors.Is(err, ErrBadClass) {
		t.Errorf("bogus class error %v", err)
	}
	if _, err := (&Server{models: map[string]*modelRuntime{}}).Submit(context.Background(),
		&Request{Model: "m", Items: 1, Class: Class(99)}); !errors.Is(err, ErrBadClass) {
		t.Errorf("out-of-range class error %v", err)
	}
}
