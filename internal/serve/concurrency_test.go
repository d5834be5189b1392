package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"harvest/internal/engine"
	"harvest/internal/hw"
	"harvest/internal/models"
	"harvest/internal/stats"
	"harvest/internal/tensor"
)

// slowBackend wraps a real forwarder with a fixed per-batch delay, so
// tests can hold an instance busy for a controlled amount of time.
type slowBackend struct {
	inner engine.Forwarder
	delay time.Duration
}

func (s *slowBackend) Forward(x *tensor.Tensor) (*tensor.Tensor, error) {
	time.Sleep(s.delay)
	return s.inner.Forward(x)
}

// gatedBackend wraps a real forwarder with a gate: every Forward
// announces itself on entered (when there is room) and then waits for
// open to be closed, so a test can hold an instance busy until the
// queue behind it is in the state it wants.
type gatedBackend struct {
	inner   engine.Forwarder
	entered chan struct{}
	open    chan struct{}
}

func (g *gatedBackend) Forward(x *tensor.Tensor) (*tensor.Tensor, error) {
	select {
	case g.entered <- struct{}{}:
	default:
	}
	<-g.open
	return g.inner.Forward(x)
}

// TestCancelledRequestEvictedBeforeDispatch verifies the acceptance
// criterion that a request whose context is cancelled while waiting in
// the batcher never occupies a dispatched batch slot.
func TestCancelledRequestEvictedBeforeDispatch(t *testing.T) {
	cfg := tinyConfig(t)
	cfg.QueueDelay = 150 * time.Millisecond
	s := newTestServer(t, cfg)

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := s.Submit(ctx, &Request{ID: "doomed", Model: models.NameViTTiny, Items: 3})
		errc <- err
	}()
	// Let the request reach the queue, then cancel it inside its window.
	waitQueueDepth(t, s, models.NameViTTiny, 1)
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled submit returned %v", err)
	}

	// A second request fused by the same window must not share its
	// batch with the evicted request's items.
	resp, err := s.Submit(context.Background(), &Request{ID: "live", Model: models.NameViTTiny, Items: 2})
	if err != nil {
		t.Fatal(err)
	}
	if resp.BatchSize != 2 {
		t.Errorf("batch size %d: cancelled request occupied a dispatched slot", resp.BatchSize)
	}
	m, err := s.MetricsFor(models.NameViTTiny)
	if err != nil {
		t.Fatal(err)
	}
	if m.Cancelled != 1 {
		t.Errorf("cancelled counter %d, want 1", m.Cancelled)
	}
	if m.Requests != 1 || m.Items != 2 {
		t.Errorf("metrics %+v: want 1 request / 2 items served", m)
	}
}

// TestGracefulDrainServesQueuedRequests verifies that Close dispatches
// and serves requests already queued instead of failing them.
func TestGracefulDrainServesQueuedRequests(t *testing.T) {
	cfg := tinyConfig(t)
	// A long window holds submitted requests inside the batcher until
	// Close starts the drain.
	cfg.QueueDelay = 10 * time.Second
	cfg.DrainTimeout = 5 * time.Second
	s := newTestServer(t, cfg)

	const n = 6
	var wg sync.WaitGroup
	results := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, err := s.Submit(context.Background(),
				&Request{ID: fmt.Sprintf("q%d", i), Model: models.NameViTTiny, Items: 2})
			results <- err
		}(i)
	}
	// Close once they are all enqueued and still waiting on the 10 s
	// batching window.
	waitQueueDepth(t, s, models.NameViTTiny, n)
	s.Close()
	wg.Wait()
	close(results)
	for err := range results {
		if err != nil {
			t.Errorf("queued request failed during graceful drain: %v", err)
		}
	}
	if got := requestsServed(t, s); got != n {
		t.Errorf("drain served %d requests, want %d", got, n)
	}
}

// TestSubmitCloseRace hammers Submit concurrently with Close under the
// race detector: every submission must resolve to a response or
// ErrServerClosed, and nothing may hang.
func TestSubmitCloseRace(t *testing.T) {
	for round := 0; round < 5; round++ {
		s := NewServer()
		eng, err := engine.New(hw.A100(), models.NameViTTiny)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Register(ModelConfig{
			Name: "m", Engine: eng, MaxBatch: 16,
			QueueDelay: 500 * time.Microsecond, Instances: 2,
		}); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		outcomes := make(chan error, 64)
		for i := 0; i < 64; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				_, err := s.Submit(context.Background(), &Request{Model: "m", Items: 1 + i%3})
				outcomes <- err
			}(i)
		}
		time.Sleep(time.Duration(round) * 200 * time.Microsecond)
		s.Close()
		wg.Wait()
		close(outcomes)
		for err := range outcomes {
			if err != nil && !errors.Is(err, ErrServerClosed) {
				t.Errorf("round %d: unexpected submit outcome: %v", round, err)
			}
		}
	}
}

// TestCancellationDuringBatchingRace mixes cancelling and patient
// submitters under -race and checks the metrics ledger balances.
func TestCancellationDuringBatchingRace(t *testing.T) {
	cfg := tinyConfig(t)
	cfg.QueueDelay = 2 * time.Millisecond
	cfg.Instances = 2
	s := newTestServer(t, cfg)

	var wg sync.WaitGroup
	var served, cancelled metricsLedger
	for i := 0; i < 120; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx := context.Background()
			if i%3 == 0 {
				var cancel context.CancelFunc
				ctx, cancel = context.WithTimeout(ctx, time.Duration(i%5)*500*time.Microsecond)
				defer cancel()
			}
			resp, err := s.Submit(ctx, &Request{Model: models.NameViTTiny, Items: 1 + i%4})
			switch {
			case err == nil:
				served.add(int64(resp.Items))
			case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
				cancelled.add(1)
			case errors.Is(err, ErrDeadlineExpired):
				// The context deadline doubles as the request's SLO
				// deadline, so the batcher may shed it first.
				cancelled.add(1)
			default:
				t.Errorf("unexpected error: %v", err)
			}
		}(i)
	}
	wg.Wait()
	m, err := s.MetricsFor(models.NameViTTiny)
	if err != nil {
		t.Fatal(err)
	}
	if m.Items != served.load() {
		t.Errorf("server items %d != client-observed served items %d", m.Items, served.load())
	}
	if m.QueueDepth != 0 {
		t.Errorf("queue depth %d after quiescence, want 0", m.QueueDepth)
	}
	if m.QueueMs.Count != int(m.Requests) {
		t.Errorf("queue latency samples %d != requests %d", m.QueueMs.Count, m.Requests)
	}
}

type metricsLedger struct {
	mu sync.Mutex
	v  int64
}

func (l *metricsLedger) add(n int64) {
	l.mu.Lock()
	l.v += n
	l.mu.Unlock()
}

func (l *metricsLedger) load() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.v
}

// TestMixedBatchPartitioned is the regression test for fusing
// tensor-carrying and items-only requests on a real-backend model: the
// batcher must partition them into separate homogeneous batches
// (TestSchedulerNext pins the split itself), so that the engine runs
// each over exactly its own inputs.
func TestMixedBatchPartitioned(t *testing.T) {
	eng, err := engine.New(hw.A100(), models.NameViTTiny)
	if err != nil {
		t.Fatal(err)
	}
	const classes = 4
	real, err := models.NewViTModel(models.MicroViTConfig(classes), stats.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	eng.Real = real
	s := newTestServer(t, ModelConfig{
		Name: "mix", Engine: eng, MaxBatch: 16,
		QueueDelay: 60 * time.Millisecond, InputSize: 32,
	})
	in := make([]float32, 3*32*32)
	var wg sync.WaitGroup
	var withInputs, itemsOnly *Response
	var errA, errB error
	wg.Add(2)
	go func() {
		defer wg.Done()
		withInputs, errA = s.Submit(context.Background(),
			&Request{ID: "tensors", Model: "mix", Inputs: [][]float32{in, in}})
	}()
	go func() {
		defer wg.Done()
		itemsOnly, errB = s.Submit(context.Background(),
			&Request{ID: "modeled", Model: "mix", Items: 3})
	}()
	wg.Wait()
	if errA != nil || errB != nil {
		t.Fatalf("mixed-kind submissions failed: %v / %v", errA, errB)
	}
	if len(withInputs.Outputs) != 2 || len(withInputs.Outputs[0]) != classes {
		t.Errorf("tensor request outputs %v", withInputs.Outputs)
	}
	if itemsOnly.Outputs != nil {
		t.Errorf("items-only request got outputs %v", itemsOnly.Outputs)
	}
	// Homogeneous partitioning: neither batch may contain the other
	// request's items.
	if withInputs.BatchSize != 2 {
		t.Errorf("tensor batch size %d, want 2", withInputs.BatchSize)
	}
	if itemsOnly.BatchSize != 3 {
		t.Errorf("items-only batch size %d, want 3", itemsOnly.BatchSize)
	}
}

func TestItemsInputsMismatchRejected(t *testing.T) {
	s := newTestServer(t, tinyConfig(t))
	in := make([]float32, 3*32*32)
	_, err := s.Submit(context.Background(),
		&Request{Model: models.NameViTTiny, Items: 3, Inputs: [][]float32{in, in}})
	if !errors.Is(err, ErrItemsMismatch) {
		t.Errorf("mismatched items/inputs: %v", err)
	}
}
