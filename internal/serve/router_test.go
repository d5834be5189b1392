package serve

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"harvest/internal/engine"
	"harvest/internal/hw"
	"harvest/internal/models"
)

// listenAt rebinds the host:port of a replica URL, for reviving a
// killed replica at its original address.
func listenAt(rawURL string) (net.Listener, error) {
	u, err := url.Parse(rawURL)
	if err != nil {
		return nil, err
	}
	return net.Listen("tcp", u.Host)
}

// newTestReplica stands up one single-model in-process replica over
// HTTP and returns its server, its httptest wrapper, and its URL.
func newTestReplica(t *testing.T, timeScale float64) (*Server, *httptest.Server) {
	t.Helper()
	eng, err := engine.New(hw.A100(), models.NameViTTiny)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer()
	if err := srv.Register(ModelConfig{
		Name:       models.NameViTTiny,
		Engine:     eng,
		MaxBatch:   8,
		QueueDelay: 200 * time.Microsecond,
		TimeScale:  timeScale,
	}); err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	return srv, hs
}

// fastPool returns a PoolConfig with probe cadence suitable for tests.
func fastPool() PoolConfig {
	return PoolConfig{
		ProbeInterval:    10 * time.Millisecond,
		EjectAfter:       2,
		EjectionDuration: 50 * time.Millisecond,
		ProbeTimeout:     time.Second,
	}
}

// TestRouterFailoverMidFlight kills one of three replicas while a load
// of already-accepted requests is in flight and asserts that every
// single request still succeeds: in-flight requests on the dead
// replica fail over to the survivors, and the dead replica is ejected.
func TestRouterFailoverMidFlight(t *testing.T) {
	const replicas = 3
	var srvs []*Server
	var https []*httptest.Server
	var urls []string
	for i := 0; i < replicas; i++ {
		s, hs := newTestReplica(t, 2) // ~4ms real per batch so requests overlap the kill
		srvs = append(srvs, s)
		https = append(https, hs)
		urls = append(urls, hs.URL)
	}
	router, err := NewRouter(urls, RouterConfig{Pool: fastPool()})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		router.Close()
		for i := range srvs {
			https[i].Close()
			srvs[i].Close()
		}
	}()

	const total = 120
	var wg sync.WaitGroup
	var failed atomic.Int64
	var served atomic.Int64
	errs := make(chan error, total)
	for i := 0; i < total; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			_, err := router.Infer(ctx, models.NameViTTiny,
				InferRequestJSON{ID: fmt.Sprintf("req-%d", i), Items: 2})
			if err != nil {
				failed.Add(1)
				errs <- err
				return
			}
			served.Add(1)
		}(i)
		time.Sleep(500 * time.Microsecond)
		if i == total/3 {
			// Kill replica 0 mid-run: in-flight connections are cut and
			// the listener stops accepting.
			https[0].CloseClientConnections()
			https[0].Close()
		}
	}
	wg.Wait()
	close(errs)
	if failed.Load() != 0 {
		t.Fatalf("%d/%d accepted requests failed after replica kill, first: %v",
			failed.Load(), total, <-errs)
	}
	if served.Load() != total {
		t.Fatalf("served %d of %d", served.Load(), total)
	}
	// The dead replica must be out of rotation.
	deadline := time.Now().Add(2 * time.Second)
	for router.Pool().HealthyCount() != replicas-1 {
		if time.Now().After(deadline) {
			t.Fatalf("dead replica not ejected: %d healthy, want %d",
				router.Pool().HealthyCount(), replicas-1)
		}
		time.Sleep(5 * time.Millisecond)
	}
	met := router.Metrics(context.Background())
	if met.Router.Failovers == 0 {
		t.Error("no failovers recorded despite a replica kill under load")
	}
	if met.Router.Requests != total {
		t.Errorf("router served counter %d, want %d", met.Router.Requests, total)
	}
}

// TestRouterHalfOpenRecovery ejects a replica via a dead backend, then
// revives the backend at the same address and asserts the health loop
// readmits it through a half-open probe and traffic reaches it again.
func TestRouterHalfOpenRecovery(t *testing.T) {
	// The steady replica is slow (TimeScale 2) and the flaky one fast,
	// so once the flaky one is readmitted, least-loaded placement is
	// guaranteed to route overlapping requests to it.
	sGood, hsGood := newTestReplica(t, 2)
	defer func() { hsGood.Close(); sGood.Close() }()
	sFlaky, hsFlaky := newTestReplica(t, 0)
	defer sFlaky.Close()
	flakyURL := hsFlaky.URL

	router, err := NewRouter([]string{hsGood.URL, flakyURL}, RouterConfig{Pool: fastPool()})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()

	waitHealthy := func(want int) {
		t.Helper()
		deadline := time.Now().Add(3 * time.Second)
		for router.Pool().HealthyCount() != want {
			if time.Now().After(deadline) {
				t.Fatalf("healthy count %d, want %d", router.Pool().HealthyCount(), want)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	waitHealthy(2)

	// Kill the flaky replica; consecutive probe failures must eject it.
	hsFlaky.CloseClientConnections()
	hsFlaky.Close()
	waitHealthy(1)

	// While it is down, requests must keep succeeding on the survivor.
	for i := 0; i < 5; i++ {
		if _, err := router.Infer(context.Background(), models.NameViTTiny,
			InferRequestJSON{Items: 1}); err != nil {
			t.Fatalf("request during ejection failed: %v", err)
		}
	}

	// Revive at the same address (fresh http.Server, same backend):
	// the ejection window lapses, a half-open probe succeeds, and the
	// replica is readmitted.
	l, err := listenAt(flakyURL)
	if err != nil {
		t.Skipf("could not rebind replica address: %v", err)
	}
	hsRevived := &httptest.Server{Listener: l, Config: &http.Server{Handler: sFlaky.Handler()}}
	hsRevived.Start()
	defer hsRevived.Close()
	waitHealthy(2)

	// Traffic must reach the recovered replica again: drive enough
	// concurrent requests that least-loaded placement spreads them.
	before := requestsServed(t, sFlaky)
	var wg sync.WaitGroup
	for i := 0; i < 40; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _ = router.Infer(context.Background(), models.NameViTTiny, InferRequestJSON{Items: 1})
		}()
	}
	wg.Wait()
	if after := requestsServed(t, sFlaky); after == before {
		t.Error("recovered replica received no traffic after readmission")
	}
}

// TestRouterClassPlacement asserts scenario-class-aware placement:
// offline requests concentrate on the busy replica while realtime
// requests go to the least-loaded one — and the class lane is
// preserved through the router onto the replica.
func TestRouterClassPlacement(t *testing.T) {
	// TimeScale 50: an 8-item offline batch really takes ~100ms, so
	// the offline load is still in flight when the realtime request
	// arrives.
	s0, hs0 := newTestReplica(t, 50)
	defer func() { hs0.Close(); s0.Close() }()
	s1, hs1 := newTestReplica(t, 50)
	defer func() { hs1.Close(); s1.Close() }()

	router, err := NewRouter([]string{hs0.URL, hs1.URL}, RouterConfig{Pool: fastPool()})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()

	// A batch of concurrent offline requests: the first lands on r0
	// (tie broken by order), and every subsequent offline request must
	// spill onto the same now-busiest replica.
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := router.Infer(context.Background(), models.NameViTTiny,
				InferRequestJSON{Items: 8, Class: "offline"}); err != nil {
				t.Errorf("offline infer: %v", err)
			}
		}()
		time.Sleep(2 * time.Millisecond) // let local inflight counts update
	}
	// With offline load pinned on one replica, a realtime request must
	// pick the other (least-loaded) one.
	if _, err := router.Infer(context.Background(), models.NameViTTiny,
		InferRequestJSON{Items: 1, Class: "realtime", DeadlineMs: 2000}); err != nil {
		t.Fatalf("realtime infer: %v", err)
	}
	wg.Wait()

	r0, r1 := requestsServed(t, s0), requestsServed(t, s1)
	if r0+r1 != 7 {
		t.Fatalf("served %d+%d requests, want 7", r0, r1)
	}
	// One replica took all six offline requests, the other exactly the
	// realtime one.
	lo, hi := r0, r1
	if lo > hi {
		lo, hi = hi, lo
	}
	if hi != 6 || lo != 1 {
		t.Errorf("placement split %d/%d, want 6 offline on one replica and 1 realtime on the other", hi, lo)
	}
	// The class lane must survive the hop: exactly one replica saw
	// realtime-class queue latency, and one saw offline-class.
	met := router.Metrics(context.Background())
	if len(met.Models) != 1 {
		t.Fatalf("aggregated models %d, want 1", len(met.Models))
	}
	byClass := met.Models[0].QueueMsByClass
	if byClass["realtime"].Count != 1 {
		t.Errorf("realtime lane count %d through router, want 1", byClass["realtime"].Count)
	}
	if byClass["offline"].Count != 6 {
		t.Errorf("offline lane count %d through router, want 6", byClass["offline"].Count)
	}
}

// TestRouterDrainComposesWithReplicaDrain closes the router while
// proxied requests are in flight, then closes the replicas: every
// already-accepted request must be served (router drain waits for its
// in-flight work; replica drain serves whatever is queued), and new
// work is refused with ErrServerClosed.
func TestRouterDrainComposesWithReplicaDrain(t *testing.T) {
	s0, hs0 := newTestReplica(t, 2)
	s1, hs1 := newTestReplica(t, 2)
	router, err := NewRouter([]string{hs0.URL, hs1.URL},
		RouterConfig{Pool: fastPool(), DrainTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}

	const total = 40
	var wg sync.WaitGroup
	var served atomic.Int64
	for i := 0; i < total; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := router.Infer(context.Background(), models.NameViTTiny,
				InferRequestJSON{Items: 4}); err != nil {
				t.Errorf("in-flight request failed across drain: %v", err)
				return
			}
			served.Add(1)
		}()
	}
	// Close only once every request is in flight: on a replica (the
	// router's inflight gauge) or already answered (its requests and
	// errors counters). A request reaches either only after the router
	// registered it, so Close cannot refuse one of them.
	for routerAdmitted(router) < total {
		time.Sleep(time.Millisecond)
	}
	// Router drain first: must wait for all in-flight proxied work.
	router.Close()
	if _, err := router.Infer(context.Background(), models.NameViTTiny,
		InferRequestJSON{Items: 1}); !errors.Is(err, ErrServerClosed) {
		t.Errorf("post-close submit error = %v, want ErrServerClosed", err)
	}
	wg.Wait()
	if served.Load() != total {
		t.Fatalf("served %d of %d across router drain", served.Load(), total)
	}
	// Then the replicas' own graceful drain.
	hs0.Close()
	hs1.Close()
	s0.Close()
	s1.Close()
	if got := requestsServed(t, s0) + requestsServed(t, s1); got != total {
		t.Errorf("replicas served %d, want %d", got, total)
	}
}

// TestRouterSpillsOnOverload: a replica answering 429 is
// backpressure, not a fault — the request spills to the next replica
// and succeeds, and the shedding replica stays in rotation.
func TestRouterSpillsOnOverload(t *testing.T) {
	// r0: admission queue of depth 1 and a long batching window, so
	// one parked request makes it shed everything else.
	eng, err := engine.New(hw.A100(), models.NameViTTiny)
	if err != nil {
		t.Fatal(err)
	}
	s0 := NewServer()
	if err := s0.Register(ModelConfig{
		Name: models.NameViTTiny, Engine: eng, MaxBatch: 8,
		QueueDelay: 200 * time.Millisecond, MaxQueueDepth: 1,
	}); err != nil {
		t.Fatal(err)
	}
	hs0 := httptest.NewServer(s0.Handler())
	defer func() { hs0.Close(); s0.Close() }()
	s1, hs1 := newTestReplica(t, 0)
	defer func() { hs1.Close(); s1.Close() }()

	router, err := NewRouter([]string{hs0.URL, hs1.URL}, RouterConfig{Pool: fastPool()})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()

	// Park one request in r0's only queue slot (directly, not through
	// the router) and let a metrics refresh pick up the depth.
	parked := make(chan error, 1)
	go func() {
		c := NewClient(hs0.URL)
		_, err := c.Infer(context.Background(), models.NameViTTiny, InferRequestJSON{Items: 4})
		parked <- err
	}()
	time.Sleep(50 * time.Millisecond)

	// Offline placement prefers the *most* loaded replica — r0 — which
	// must answer 429; the router spills to r1 and succeeds without
	// ejecting r0.
	if _, err := router.Infer(context.Background(), models.NameViTTiny,
		InferRequestJSON{Items: 8, Class: "offline"}); err != nil {
		t.Fatalf("offline infer under partial overload: %v", err)
	}
	met := router.Metrics(context.Background())
	if met.Router.Spills == 0 {
		t.Error("overloaded replica did not cause a spill")
	}
	for _, st := range router.Pool().Status() {
		if !st.Healthy {
			t.Errorf("replica %s ejected by 429 backpressure", st.Name)
		}
	}
	if err := <-parked; err != nil {
		t.Errorf("parked request failed: %v", err)
	}
	if got := requestsServed(t, s1); got != 1 {
		t.Errorf("spill target served %d requests, want 1", got)
	}
}

// routerAdmitted counts the router's requests that are on a replica or
// already answered.
func routerAdmitted(r *Router) int64 {
	n := r.met.requests.Load() + r.met.errors.Load()
	for _, rep := range r.pool.Replicas() {
		n += rep.inflight.Load()
	}
	return n
}

// requestsServed reads a replica server's successful request count.
func requestsServed(t *testing.T, s *Server) int64 {
	t.Helper()
	m, err := s.MetricsFor(models.NameViTTiny)
	if err != nil {
		t.Fatal(err)
	}
	return m.Requests
}
