package fleet

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"harvest/internal/core"
	"harvest/internal/engine"
	"harvest/internal/hw"
	"harvest/internal/metrics"
	"harvest/internal/models"
	"harvest/internal/serve"
)

// newTestBackend stands up one single-model replica over HTTP.
// timeScale stretches the modeled service time into real time (0 = as
// fast as the model runs).
func newTestBackend(t *testing.T, timeScale float64) (*serve.Server, *httptest.Server) {
	t.Helper()
	eng, err := engine.New(hw.A100(), models.NameViTTiny)
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.NewServer()
	if err := srv.Register(serve.ModelConfig{
		Name:       models.NameViTTiny,
		Engine:     eng,
		MaxBatch:   8,
		QueueDelay: 200 * time.Microsecond,
		TimeScale:  timeScale,
	}); err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { hs.Close(); srv.Close() })
	return srv, hs
}

func fastPoolCfg() serve.PoolConfig {
	return serve.PoolConfig{
		ProbeInterval:    10 * time.Millisecond,
		EjectAfter:       2,
		EjectionDuration: 50 * time.Millisecond,
		ProbeTimeout:     time.Second,
	}
}

// waitFor polls cond until it holds or the deadline lapses.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestRegistryDefaultTTLIsClamped: the registry default passes the same
// [MinTTL, MaxTTL] clamp as a requested TTL, so a 1 ns default neither
// grants a 1 ns lease nor makes the sweep interval zero (which panics
// in time.NewTicker).
func TestRegistryDefaultTTLIsClamped(t *testing.T) {
	_, hs := newTestBackend(t, 0)
	for _, tc := range []struct{ def, want time.Duration }{
		{2 * time.Minute, MaxTTL},
		{time.Nanosecond, MinTTL},
	} {
		pool := serve.NewDynamicPool(fastPoolCfg())
		g := NewRegistry(pool, tc.def)
		l, err := g.Register("r1", hs.URL, "", 0)
		g.Close()
		pool.Close()
		if err != nil {
			t.Fatal(err)
		}
		if l.TTL != tc.want {
			t.Errorf("default %v granted %v, want %v", tc.def, l.TTL, tc.want)
		}
	}
}

// TestRegistryLeaseLifecycle covers register → renew → deregister and
// the replace-on-new-URL path.
func TestRegistryLeaseLifecycle(t *testing.T) {
	_, hs := newTestBackend(t, 0)
	pool := serve.NewDynamicPool(fastPoolCfg())
	defer pool.Close()
	g := NewRegistry(pool, time.Second)
	defer g.Close()

	if _, err := g.Register("", hs.URL, "", 0); err == nil {
		t.Fatal("registration with no name succeeded")
	}
	l, err := g.Register("r1", hs.URL, hw.KeyA100, 0)
	if err != nil {
		t.Fatal(err)
	}
	if l.TTL != time.Second {
		t.Fatalf("granted TTL = %v, want registry default 1s", l.TTL)
	}
	if pool.Size() != 1 {
		t.Fatalf("pool size after register = %d, want 1", pool.Size())
	}

	// Renewal extends the lease without a second pool member.
	time.Sleep(5 * time.Millisecond)
	l2, err := g.Register("r1", hs.URL, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if !l2.Expires.After(l.Expires) {
		t.Fatalf("renewal did not extend expiry: %v -> %v", l.Expires, l2.Expires)
	}
	if pool.Size() != 1 {
		t.Fatalf("pool size after renewal = %d, want 1", pool.Size())
	}

	// TTL requests are clamped.
	if l3, _ := g.Register("clamped", hs.URL, "", time.Nanosecond); l3.TTL != MinTTL {
		t.Fatalf("tiny TTL granted %v, want clamp to %v", l3.TTL, MinTTL)
	}
	if err := g.Deregister("clamped", false); err != nil {
		t.Fatal(err)
	}

	// Same name at a new URL replaces the member.
	_, hs2 := newTestBackend(t, 0)
	if _, err := g.Register("r1", hs2.URL, "", 0); err != nil {
		t.Fatal(err)
	}
	if pool.Size() != 1 {
		t.Fatalf("pool size after replace = %d, want 1", pool.Size())
	}
	if ls := g.Leases(); len(ls) != 1 || ls[0].URL != hs2.URL {
		t.Fatalf("lease after replace = %+v, want URL %s", ls, hs2.URL)
	}

	if err := g.Deregister("r1", false); err != nil {
		t.Fatal(err)
	}
	if pool.Size() != 0 {
		t.Fatalf("pool size after deregister = %d, want 0", pool.Size())
	}
	if err := g.Deregister("r1", false); err == nil {
		t.Fatal("deregistering a missing lease succeeded")
	}

	kinds := map[EventKind]int{}
	for _, e := range g.Events() {
		kinds[e.Kind]++
	}
	if kinds[EventRegister] < 2 || kinds[EventRenew] < 1 || kinds[EventDeregister] < 3 {
		t.Fatalf("event mix %v missing expected transitions", kinds)
	}
}

// TestRegisterHugeTTLClampsToMax: a ttl_ms past the largest Duration
// (~9.2e12 ms) asks for a lease clamped to MaxTTL, not for one that
// wrapped negative and fell back to the registry default.
func TestRegisterHugeTTLClampsToMax(t *testing.T) {
	_, hs := newTestBackend(t, 0)
	pool := serve.NewDynamicPool(fastPoolCfg())
	defer pool.Close()
	g := NewRegistry(pool, time.Second)
	defer g.Close()

	body := fmt.Sprintf(`{"name":"r1","url":%q,"ttl_ms":1e13}`, hs.URL)
	rec := httptest.NewRecorder()
	Handler(g, nil, nil).ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v2/fleet/register", strings.NewReader(body)))
	var resp RegisterResponseJSON
	if err := json.NewDecoder(rec.Body).Decode(&resp); err != nil || rec.Code != http.StatusOK {
		t.Fatalf("register: HTTP %d, %v", rec.Code, err)
	}
	if want := float64(MaxTTL / time.Millisecond); resp.TTLMs != want {
		t.Errorf("granted ttl_ms %v, want MaxTTL %v", resp.TTLMs, want)
	}
}

// TestRegistryTTLExpiryMidTraffic lets one replica's lease expire under
// live dispatch: the expired member leaves the pool, in-flight work on
// it still completes, and zero admitted requests fail.
func TestRegistryTTLExpiryMidTraffic(t *testing.T) {
	_, hsA := newTestBackend(t, 0)
	_, hsB := newTestBackend(t, 0)

	router := serve.NewDynamicRouter(serve.RouterConfig{Pool: fastPoolCfg()})
	defer router.Close()
	g := NewRegistry(router.Pool(), 300*time.Millisecond)
	defer g.Close()

	if _, err := g.Register("a", hsA.URL, "", 0); err != nil {
		t.Fatal(err)
	}

	ctx := t.Context()
	var wg sync.WaitGroup
	var failures, ok atomic.Int64
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
				if _, err := router.Infer(ctx, models.NameViTTiny, serve.InferRequestJSON{Items: 1, Class: "online"}); err != nil {
					failures.Add(1)
				} else {
					ok.Add(1)
				}
			}
		}()
	}
	// Keep a's lease alive while b joins and then silently dies
	// (renewals stop; the TTL sweeper evicts it).
	renewStop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-renewStop:
				return
			case <-time.After(75 * time.Millisecond):
				if _, err := g.Register("a", hsA.URL, "", 0); err != nil {
					t.Errorf("renew a: %v", err)
				}
			}
		}
	}()

	if _, err := g.Register("b", hsB.URL, "", 0); err != nil {
		t.Fatal(err)
	}
	waitFor(t, time.Second, "b to join the pool", func() bool { return router.Pool().Size() == 2 })
	// No renewals for b: it must expire and leave the pool while
	// traffic keeps flowing.
	waitFor(t, 2*time.Second, "b's lease to expire", func() bool { return router.Pool().Size() == 1 })
	// A little more traffic after the eviction, then stop.
	time.Sleep(50 * time.Millisecond)
	close(stop)
	close(renewStop)
	wg.Wait()

	if f := failures.Load(); f != 0 {
		t.Fatalf("%d requests failed across lease expiry, want 0 (ok=%d)", f, ok.Load())
	}
	if ok.Load() == 0 {
		t.Fatal("no requests completed; the test drove no traffic")
	}
	expired := false
	for _, e := range g.Events() {
		if e.Kind == EventExpire && e.Name == "b" {
			expired = true
		}
	}
	if !expired {
		t.Fatalf("no expire event for b in %v", g.Events())
	}
}

// TestRegistryDrainBeforeDeregister verifies the scale-down path: a
// drain-aware deregistration marks the replica draining (no new
// picks), waits out its in-flight request, then removes it — the
// admitted request succeeds.
func TestRegistryDrainBeforeDeregister(t *testing.T) {
	// ~100ms real per batch so a request is reliably in flight when the
	// drain starts.
	_, hs := newTestBackend(t, 50)

	router := serve.NewDynamicRouter(serve.RouterConfig{Pool: fastPoolCfg()})
	defer router.Close()
	g := NewRegistry(router.Pool(), 5*time.Second)
	defer g.Close()
	if _, err := g.Register("slow", hs.URL, "", 0); err != nil {
		t.Fatal(err)
	}

	errc := make(chan error, 1)
	go func() {
		_, err := router.Infer(t.Context(), models.NameViTTiny, serve.InferRequestJSON{Items: 1, Class: "online"})
		errc <- err
	}()
	rep := router.Pool().Replicas()[0]
	waitFor(t, 2*time.Second, "request in flight", func() bool { return rep.Inflight() > 0 })

	if err := g.Deregister("slow", true); err != nil {
		t.Fatal(err)
	}
	ls := g.Leases()
	if len(ls) != 1 || !ls[0].Draining {
		t.Fatalf("lease after drain-deregister = %+v, want draining", ls)
	}
	if router.Pool().Size() != 1 {
		t.Fatal("draining replica left the pool before its in-flight work finished")
	}
	if err := <-errc; err != nil {
		t.Fatalf("in-flight request failed during drain: %v", err)
	}
	waitFor(t, 2*time.Second, "drained replica removal", func() bool { return router.Pool().Size() == 0 })
	if ls := g.Leases(); len(ls) != 0 {
		t.Fatalf("leases after drain completed = %+v, want none", ls)
	}
}

// TestPlanCapacity checks the oracle's shape: more demand needs more
// replicas, the chosen candidate is the smallest fleet that meets the
// SLO, and an impossible ask falls back to best effort.
func TestPlanCapacity(t *testing.T) {
	cfg := OracleConfig{Model: models.NameViTBase, Platform: hw.KeyJetson, MaxReplicas: 6}
	slo := 500 * time.Millisecond

	low, err := PlanCapacity(cfg, 50, slo)
	if err != nil {
		t.Fatal(err)
	}
	if !low.Chosen.MeetsSLO || low.Chosen.Replicas != 1 {
		t.Fatalf("50 rps plan = %+v, want 1 meeting replica", low.Chosen)
	}
	high, err := PlanCapacity(cfg, 400, slo)
	if err != nil {
		t.Fatal(err)
	}
	if !high.Chosen.MeetsSLO {
		t.Fatalf("400 rps plan does not meet SLO: %+v", high.Chosen)
	}
	if high.Chosen.Replicas <= low.Chosen.Replicas {
		t.Fatalf("8x demand chose %d replicas, low-rate chose %d; want growth", high.Chosen.Replicas, low.Chosen.Replicas)
	}

	// The chosen fleet is the last candidate tried: every smaller one
	// missed the SLO.
	if n := len(high.Candidates); high.Candidates[n-1] != high.Chosen || high.Chosen.Replicas != n {
		t.Fatalf("400 rps chose %+v of candidates %+v, want the first meeting one", high.Chosen, high.Candidates)
	}
	for _, c := range high.Candidates[:len(high.Candidates)-1] {
		if c.MeetsSLO {
			t.Fatalf("smaller candidate %+v meets the SLO, but %+v was chosen", c, high.Chosen)
		}
	}

	// Impossible demand: best-effort fallback at the ceiling.
	capped, err := PlanCapacity(OracleConfig{
		Model:       models.NameViTBase,
		Platform:    hw.KeyJetson,
		MaxReplicas: 1,
	}, 5000, slo)
	if err != nil {
		t.Fatal(err)
	}
	if capped.Chosen.MeetsSLO || capped.Chosen.Replicas != 1 {
		t.Fatalf("impossible plan = %+v, want best-effort single replica with MeetsSLO=false", capped.Chosen)
	}

	if _, err := PlanCapacity(cfg, 0, slo); err == nil {
		t.Fatal("zero arrival rate accepted")
	}
	if _, err := PlanCapacity(cfg, 10, 0); err == nil {
		t.Fatal("zero SLO accepted")
	}
}

// TestAttainment unit-tests the windowed histogram-diff attainment,
// including the negative-delta clamp replica removal causes.
func TestAttainment(t *testing.T) {
	nb := metrics.NumLatencyBuckets
	prev := make([]uint64, nb)
	cur := make([]uint64, nb)
	// All new observations in bucket 0 (fastest): attainment 1.
	cur[0] = 10
	if got := attainment(prev, cur, 50*time.Millisecond); got != 1 {
		t.Fatalf("fast-bucket attainment = %v, want 1", got)
	}
	// Half the new observations in the +Inf bucket: attainment 0.5.
	cur[nb-1] = 10
	if got := attainment(prev, cur, 50*time.Millisecond); got != 0.5 {
		t.Fatalf("split attainment = %v, want 0.5", got)
	}
	// Shrinking counters (replica removed) clamp, not underflow.
	prev[0], cur[0] = 20, 10
	prev[nb-1], cur[nb-1] = 0, 10
	if got := attainment(prev, cur, 50*time.Millisecond); got != 0 {
		t.Fatalf("clamped attainment = %v, want 0 (only slow bucket grew)", got)
	}
	// Empty window: vacuously attained.
	if got := attainment(cur, cur, 50*time.Millisecond); got != 1 {
		t.Fatalf("empty-window attainment = %v, want 1", got)
	}
	// Malformed buckets: treated as no data.
	if got := attainment(nil, []uint64{1, 2}, 50*time.Millisecond); got != 1 {
		t.Fatalf("malformed-bucket attainment = %v, want 1", got)
	}
}

// TestControllerAdvisory drives real traffic through a one-replica
// fleet and checks the controller, with no provisioner, records
// advisory decisions with a positive demand estimate.
func TestControllerAdvisory(t *testing.T) {
	_, hs := newTestBackend(t, 0)
	router := serve.NewDynamicRouter(serve.RouterConfig{Pool: fastPoolCfg()})
	defer router.Close()
	g := NewRegistry(router.Pool(), 5*time.Second)
	defer g.Close()
	if _, err := g.Register("r0", hs.URL, hw.KeyA100, 0); err != nil {
		t.Fatal(err)
	}

	c := NewController(router, g, nil, hw.KeyA100, ControllerConfig{
		Model:    models.NameViTTiny,
		Interval: 100 * time.Millisecond,
		SLO:      100 * time.Millisecond,
		Max:      4,
	})
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if _, err := router.Infer(t.Context(), models.NameViTTiny, serve.InferRequestJSON{Items: 1, Class: "online"}); err != nil {
			t.Fatal(err)
		}
		ds := c.Decisions()
		if len(ds) >= 2 && ds[len(ds)-1].ArrivalRPS > 0 {
			last := ds[len(ds)-1]
			if last.Attainment < 0 || last.Attainment > 1 {
				t.Fatalf("attainment %v out of [0,1]", last.Attainment)
			}
			if last.Reason == "" {
				t.Fatalf("decision with empty reason: %+v", last)
			}
			return
		}
	}
	t.Fatalf("controller never recorded a demand-bearing decision: %+v", c.Decisions())
}

// TestLocalProvisionerAgentLifecycle runs the full agent protocol over
// HTTP: Launch self-registers and renews, Stop deregisters with drain,
// and Kill leaves the lease to expire by TTL (the crash path).
func TestLocalProvisionerAgentLifecycle(t *testing.T) {
	router := serve.NewDynamicRouter(serve.RouterConfig{Pool: fastPoolCfg()})
	defer router.Close()
	g := NewRegistry(router.Pool(), 400*time.Millisecond)
	defer g.Close()
	cp := httptest.NewServer(Handler(g, nil, router.Handler()))
	defer cp.Close()

	lp := &LocalProvisioner{
		FleetURL: cp.URL,
		Replica:  core.DeploymentConfig{Platform: hw.KeyJetson, Models: []string{models.NameViTTiny}},
		TTL:      400 * time.Millisecond,
	}
	defer lp.Close()

	url, err := lp.Launch()
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 3*time.Second, "launched replica to register", func() bool {
		return len(g.Leases()) == 1
	})
	l := g.Leases()[0]
	if l.URL != url || l.Platform != hw.KeyJetson {
		t.Fatalf("lease = %+v, want url %s platform Jetson", l, url)
	}
	// Renewals must outlive several TTLs.
	time.Sleep(3 * l.TTL)
	if len(g.Leases()) != 1 {
		t.Fatal("lease expired despite a live agent renewing it")
	}

	// Stop: graceful, drain-aware deregistration.
	if err := lp.Stop(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 3*time.Second, "stopped replica to deregister", func() bool {
		return len(g.Leases()) == 0 && router.Pool().Size() == 0
	})
	gotDereg := false
	for _, e := range g.Events() {
		if e.Kind == EventDeregister {
			gotDereg = true
		}
	}
	if !gotDereg {
		t.Fatalf("no deregister event after Stop: %v", g.Events())
	}

	// Kill: abrupt death. No deregistration — the lease must linger
	// until its TTL sweeps it out as an expiry.
	if _, err := lp.Launch(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 3*time.Second, "second replica to register", func() bool {
		return len(g.Leases()) == 1
	})
	name, err := lp.Kill()
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 3*time.Second, "killed replica's lease to expire", func() bool {
		return len(g.Leases()) == 0
	})
	gotExpire := false
	for _, e := range g.Events() {
		if e.Kind == EventExpire && e.Name == name {
			gotExpire = true
		}
	}
	if !gotExpire {
		t.Fatalf("killed replica %s did not expire (events %v) — it must not deregister", name, g.Events())
	}
}

// TestStopDuringRegistrationDeregisters: an agent stopped while the
// control plane has granted its lease but not yet answered still
// deregisters it, so the lease goes at once instead of by expiry.
func TestStopDuringRegistrationDeregisters(t *testing.T) {
	router := serve.NewDynamicRouter(serve.RouterConfig{Pool: fastPoolCfg()})
	defer router.Close()
	g := NewRegistry(router.Pool(), time.Minute)
	defer g.Close()
	h := Handler(g, nil, router.Handler())
	granted, answer := make(chan struct{}), make(chan struct{})
	var once sync.Once
	cp := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		if r.URL.Path == "/v2/fleet/register" {
			once.Do(func() { close(granted); <-answer }) // the grant is made, its answer held
		}
		w.WriteHeader(rec.Code)
		_, _ = w.Write(rec.Body.Bytes())
	}))
	defer cp.Close()
	a := &Agent{FleetURL: cp.URL, Name: "r0", URL: "http://127.0.0.1:1", Platform: hw.KeyJetson}
	a.Start()
	<-granted
	a.cancel() // Stop's first step, taken while the grant is unanswered
	close(answer)
	if err := a.Stop(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, "the lease to go", func() bool { return len(g.Leases()) == 0 })
	if ev := g.Events(); len(ev) != 2 || ev[1].Kind != EventDeregister {
		t.Errorf("events %v, want a registration and its deregistration", ev)
	}
}

// TestLocalChurnOrder: on a three-replica local fleet, Kill crashes the
// replica launched last, and a scale-down after the kill retires a
// live replica (the newest survivor), never the dead one, whose lease
// still counts until its TTL lapses.
func TestLocalChurnOrder(t *testing.T) {
	router := serve.NewDynamicRouter(serve.RouterConfig{Pool: fastPoolCfg()})
	defer router.Close()
	g := NewRegistry(router.Pool(), 400*time.Millisecond)
	defer g.Close()
	cp := httptest.NewServer(Handler(g, nil, router.Handler()))
	defer cp.Close()
	lp := &LocalProvisioner{
		FleetURL: cp.URL,
		Replica:  core.DeploymentConfig{Platform: hw.KeyJetson, Models: []string{models.NameViTTiny}},
		TTL:      400 * time.Millisecond,
	}
	defer lp.Close()

	var urls []string
	for range 3 {
		url, err := lp.Launch()
		if err != nil {
			t.Fatal(err)
		}
		urls = append(urls, url)
	}
	waitFor(t, 3*time.Second, "three replicas to register", func() bool { return len(g.Leases()) == 3 })
	nameAt := map[string]string{}
	for _, l := range g.Leases() {
		nameAt[l.URL] = l.Name
	}

	killed, err := lp.Kill()
	if err != nil {
		t.Fatal(err)
	}
	if killed != nameAt[urls[2]] {
		t.Fatalf("Kill took down %s, want the last launched %s", killed, nameAt[urls[2]])
	}

	c := NewController(router, g, lp, hw.KeyJetson, ControllerConfig{Model: models.NameViTTiny, Min: 1, Max: 3})
	if got := c.scaleDown(3, 2); got != 2 {
		t.Fatalf("scale-down 3→2 reached %d", got)
	}
	if len(lp.reps) != 1 || lp.reps[0].replica.URL != urls[0] {
		t.Fatalf("%d live replicas after kill + scale-down, want the first, at %s", len(lp.reps), urls[0])
	}
	retired := nameAt[urls[1]]
	waitFor(t, 3*time.Second, "the retired and the killed lease to go", func() bool { return len(g.Leases()) == 1 })
	for _, e := range g.Events() {
		switch {
		case e.Name == retired && e.Kind == EventExpire:
			t.Errorf("retired replica %s expired; it should have deregistered", retired)
		case e.Name == killed && e.Kind == EventDeregister:
			t.Errorf("killed replica %s deregistered; the scale-down stopped the dead one", killed)
		}
	}
	if l := g.Leases()[0]; l.URL != urls[0] {
		t.Fatalf("surviving lease %+v, want the first replica at %s", l, urls[0])
	}
}
