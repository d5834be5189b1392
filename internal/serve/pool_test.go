package serve

import (
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"harvest/internal/models"
)

// newBareReplica builds a pool-attached replica without health loops,
// for direct pick/score table tests.
func newBareReplica(p *Pool, name string) *Replica {
	return &Replica{Name: name, pool: p, done: make(chan struct{})}
}

// TestPoolCloseConcurrent exercises the double-close path: N
// goroutines race Close on one pool. Before the sync.Once fix, two
// callers could both pass the check-then-close select and panic
// closing p.stop twice.
func TestPoolCloseConcurrent(t *testing.T) {
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	}))
	defer hs.Close()
	p, err := NewPool([]string{hs.URL, hs.URL + "/x"}, fastPool())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.Close()
		}()
	}
	wg.Wait()
	// And again after everyone returned: still a no-op.
	p.Close()
}

// TestPoolCloseClosesConnections: Close releases the connections the
// pool's health loops opened. A replica's http.Server.Shutdown waits
// out a connection that never carried a request until it is 5 s old,
// so an idle one left open stalled tearing down a replica behind a
// closed router that long.
func TestPoolCloseClosesConnections(t *testing.T) {
	var open, probes atomic.Int64
	hs := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		probes.Add(1)
		w.WriteHeader(http.StatusOK)
	}))
	hs.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		switch st {
		case http.StateNew:
			open.Add(1)
		case http.StateClosed, http.StateHijacked:
			open.Add(-1)
		}
	}
	hs.Start()
	defer hs.Close()
	p, err := NewPool([]string{hs.URL, hs.URL}, fastPool())
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); probes.Load() < 4; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("health loops sent %d requests in 5 s", probes.Load())
		}
	}
	p.Close()
	for deadline := time.Now().Add(time.Second); open.Load() > 0; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d pool connections still open 1 s after Close", open.Load())
		}
	}
}

// TestPoolScoreStaleMetricsFallback regression-tests the stale-snapshot
// bug: a replica that keeps serving /ready but fails /v2/metrics must
// not be ranked on its last snapshot forever. Here the replica's only
// successful metrics fetch reported a deep queue; once the snapshot
// ages past staleMetricsFactor probe intervals, score must fall back
// to the inflight-only estimate instead of avoiding the replica
// indefinitely.
func TestPoolScoreStaleMetricsFallback(t *testing.T) {
	const deepQueue = 1000
	var metricsCalls atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v2/health/ready", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	})
	mux.HandleFunc("GET /v2/metrics", func(w http.ResponseWriter, r *http.Request) {
		if metricsCalls.Add(1) > 1 {
			// The metrics probe path breaks after the first answer;
			// readiness keeps succeeding.
			http.Error(w, "metrics collector wedged", http.StatusInternalServerError)
			return
		}
		_ = json.NewEncoder(w).Encode(MetricsJSON{Models: []ModelMetricsJSON{
			{Model: models.NameViTTiny, QueueDepth: deepQueue},
		}})
	})
	hs := httptest.NewServer(mux)
	defer hs.Close()

	cfg := fastPool()
	p, err := NewPool([]string{hs.URL}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	rep := p.Replicas()[0]

	// Wait for the one successful metrics fetch.
	deadline := time.Now().Add(2 * time.Second)
	for rep.metrics.Load() == nil {
		if time.Now().After(deadline) {
			t.Fatal("replica never fetched its first metrics snapshot")
		}
		time.Sleep(time.Millisecond)
	}
	if got := rep.score(models.NameViTTiny); got < deepQueue {
		t.Fatalf("fresh snapshot: score = %v, want >= %d (queue depth trusted)", got, deepQueue)
	}
	// Age the snapshot past the staleness horizon while probes keep
	// failing the metrics fetch.
	time.Sleep(time.Duration(staleMetricsFactor+2) * cfg.ProbeInterval)
	if got := rep.score(models.NameViTTiny); got != 0 {
		t.Fatalf("stale snapshot: score = %v, want 0 (inflight-only fallback)", got)
	}
	if !rep.Healthy() {
		t.Fatal("replica went unhealthy: readiness probes were succeeding")
	}
}

// TestPoolPickFallbackClassPolicy is the table-driven pick test for
// the no-healthy-replica fallback: it must apply the same
// offline→busiest / latency→least-loaded rule as the healthy path,
// instead of always taking least-loaded — which spilled offline
// traffic onto exactly the replica realtime retries want.
func TestPoolPickFallbackClassPolicy(t *testing.T) {
	const model = "m"
	mk := func() (*Pool, *Replica, *Replica, *Replica) {
		p := NewDynamicPool(fastPool())
		idle := newBareReplica(p, "idle")
		busy := newBareReplica(p, "busy")
		busiest := newBareReplica(p, "busiest")
		busy.inflight.Store(5)
		busiest.inflight.Store(9)
		p.replicas = []*Replica{idle, busy, busiest}
		return p, idle, busy, busiest
	}

	t.Run("healthy path keeps the policy", func(t *testing.T) {
		p, idle, _, busiest := mk()
		if got := p.pick(model, ClassRealtime, nil); got != idle {
			t.Fatalf("realtime pick = %s, want idle", got.Name)
		}
		if got := p.pick(model, ClassOffline, nil); got != busiest {
			t.Fatalf("offline pick = %s, want busiest", got.Name)
		}
	})

	cases := []struct {
		name  string
		class Class
		tried []string // replica names already tried
		want  string
	}{
		{"offline fallback goes to busiest", ClassOffline, nil, "busiest"},
		{"realtime fallback goes to least loaded", ClassRealtime, nil, "idle"},
		{"online fallback goes to least loaded", ClassOnline, nil, "idle"},
		{"offline fallback skips tried busiest", ClassOffline, []string{"busiest"}, "busy"},
		{"realtime fallback skips tried idle", ClassRealtime, []string{"idle"}, "busy"},
		{"all tried yields nil", ClassOffline, []string{"idle", "busy", "busiest"}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p, _, _, _ := mk()
			// Every replica unhealthy: force the fallback path.
			for _, rep := range p.replicas {
				rep.state.Store(replicaEjected)
			}
			tried := map[*Replica]bool{}
			for _, rep := range p.replicas {
				for _, name := range tc.tried {
					if rep.Name == name {
						tried[rep] = true
					}
				}
			}
			got := p.pick(model, tc.class, tried)
			switch {
			case tc.want == "" && got != nil:
				t.Fatalf("pick = %s, want nil", got.Name)
			case tc.want != "" && got == nil:
				t.Fatalf("pick = nil, want %s", tc.want)
			case tc.want != "" && got.Name != tc.want:
				t.Fatalf("pick = %s, want %s", got.Name, tc.want)
			}
		})
	}

	t.Run("draining preferred over unhealthy", func(t *testing.T) {
		p, idle, busy, busiest := mk()
		idle.state.Store(replicaEjected)
		busiest.state.Store(replicaEjected)
		busy.SetDraining(true)
		// busy is the only healthy candidate, albeit draining: it wins
		// over the ejected ones.
		if got := p.pick(model, ClassRealtime, nil); got != busy {
			t.Fatalf("pick = %v, want draining-but-healthy busy", got.Name)
		}
	})

	t.Run("draining excluded while others healthy", func(t *testing.T) {
		p, idle, _, _ := mk()
		idle.SetDraining(true)
		if got := p.pick(model, ClassRealtime, nil); got == idle {
			t.Fatal("pick chose a draining replica while non-draining ones were healthy")
		}
	})
}

// TestPoolProbePhaseSpread asserts the health loops are staggered: N
// replicas sharing one ProbeInterval must not fire their first probes
// in one synchronized burst. Phases are deterministic (slot i of
// probePhaseSlots), so the expected spread is exact.
func TestPoolProbePhaseSpread(t *testing.T) {
	const n = 8
	interval := 80 * time.Millisecond

	var mu sync.Mutex
	first := map[string]time.Time{}
	var hss []*httptest.Server
	var urls []string
	for i := 0; i < n; i++ {
		hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			mu.Lock()
			if _, ok := first[r.Host]; !ok {
				first[r.Host] = time.Now()
			}
			mu.Unlock()
			w.WriteHeader(http.StatusOK)
		}))
		defer hs.Close()
		hss = append(hss, hs)
		urls = append(urls, hs.URL)
	}
	_ = hss
	cfg := fastPool()
	cfg.ProbeInterval = interval
	p, err := NewPool(urls, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	deadline := time.Now().Add(2 * interval)
	for {
		mu.Lock()
		got := len(first)
		mu.Unlock()
		if got == n {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d replicas probed within 2 intervals", got, n)
		}
		time.Sleep(time.Millisecond)
	}
	mu.Lock()
	var min, max time.Time
	for _, at := range first {
		if min.IsZero() || at.Before(min) {
			min = at
		}
		if at.After(max) {
			max = at
		}
	}
	mu.Unlock()
	spread := max.Sub(min)
	// 8 replicas over 16 slots of an 80 ms interval sit at 0..35 ms:
	// anything clearly above the old zero-spread burst passes.
	if want := interval / 5; spread < want {
		t.Fatalf("first-probe spread = %v, want >= %v (probes still in phase)", spread, want)
	}
	if spread > interval {
		t.Fatalf("first-probe spread = %v exceeds one interval %v", spread, interval)
	}
}

// TestPoolMembershipUnderTraffic mutates pool membership while a
// router is dispatching: replicas are added and removed mid-run and
// every admitted request must still succeed (removal never touches
// in-flight work; new members join dispatch).
func TestPoolMembershipUnderTraffic(t *testing.T) {
	srvA, hsA := newTestReplica(t, 0)
	defer hsA.Close()
	defer srvA.Close()
	srvB, hsB := newTestReplica(t, 0)
	defer hsB.Close()
	defer srvB.Close()

	router, err := NewRouter([]string{hsA.URL}, RouterConfig{Pool: fastPool()})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	pool := router.Pool()

	ctx := t.Context()
	var wg sync.WaitGroup
	var failures atomic.Int64
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := router.Infer(ctx, models.NameViTTiny, InferRequestJSON{Items: 1, Class: "online"}); err != nil {
					failures.Add(1)
				}
			}
		}()
	}

	// Churn: add B, wait for it to serve, remove it again, repeatedly.
	for round := 0; round < 5; round++ {
		rep, err := pool.Add("", hsB.URL)
		if err != nil {
			t.Fatalf("round %d: add: %v", round, err)
		}
		time.Sleep(30 * time.Millisecond)
		if !pool.Remove(rep.Name) {
			t.Fatalf("round %d: remove(%s) found nothing", round, rep.Name)
		}
		time.Sleep(10 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	if f := failures.Load(); f != 0 {
		t.Fatalf("%d requests failed during membership churn, want 0", f)
	}
	if got := pool.Size(); got != 1 {
		t.Fatalf("pool size after churn = %d, want 1", got)
	}
}
