package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"harvest/internal/engine"
	"harvest/internal/hw"
	"harvest/internal/models"
)

func TestParseTenant(t *testing.T) {
	cases := []struct {
		in   string
		want string
		ok   bool
	}{
		{"", DefaultTenant, true},
		{"farm-a", "farm-a", true},
		{"Farm_2.cluster-1", "Farm_2.cluster-1", true},
		{strings.Repeat("a", 64), strings.Repeat("a", 64), true},
		{strings.Repeat("a", 65), "", false},
		{"farm a", "", false},
		{"farm/a", "", false},
		{"~other", "", false},
		{"ünïcode", "", false},
	}
	for _, c := range cases {
		got, err := ParseTenant(c.in)
		if c.ok && (err != nil || got != c.want) {
			t.Errorf("ParseTenant(%q) = %q, %v; want %q", c.in, got, err, c.want)
		}
		if !c.ok && !errors.Is(err, ErrBadTenant) {
			t.Errorf("ParseTenant(%q) err = %v, want ErrBadTenant", c.in, err)
		}
	}
}

func TestParseTenantQuotaSpec(t *testing.T) {
	tenant, q, err := ParseTenantQuotaSpec("hog:rate=40,burst=80,share=0.25")
	if err != nil {
		t.Fatal(err)
	}
	if tenant != "hog" || q.RatePerSec != 40 || q.Burst != 80 || q.MaxQueueShare != 0.25 {
		t.Errorf("parsed %q %+v", tenant, q)
	}
	tenant, q, err = ParseTenantQuotaSpec("*:rate=100")
	if err != nil || tenant != "*" || q.RatePerSec != 100 {
		t.Errorf("wildcard spec: %q %+v %v", tenant, q, err)
	}
	if _, _, err := ParseTenantQuotaSpec("hog"); err != nil {
		t.Errorf("bare tenant (unlimited) rejected: %v", err)
	}
	for _, bad := range []string{
		"", ":rate=1", "hog:rate=-1", "hog:share=1.5", "hog:bogus=1", "bad tenant:rate=1",
	} {
		if _, _, err := ParseTenantQuotaSpec(bad); err == nil {
			t.Errorf("spec %q accepted", bad)
		}
	}
}

// mkPending builds a minimal queued request for DRR lane unit tests.
func mkPending(tenant string, items int) *pending {
	return &pending{req: Request{Items: items}, tenant: tenant}
}

// TestDRRLaneFairness: two tenants with equal-size requests share a
// lane's dispatches 1:1 while both are backlogged, regardless of how
// lopsided the offered load is (10:1 here).
func TestDRRLaneFairness(t *testing.T) {
	l := newDRRLane(DefaultTenantQuantum)
	// Hog offers 10x the victim's load, interleaved as it would arrive.
	for i := 0; i < 10; i++ {
		for j := 0; j < 10; j++ {
			l.push(mkPending("hog", 1))
		}
		l.push(mkPending("victim", 1))
	}
	counts := map[string]int{}
	for i := 0; i < 20; i++ {
		p := l.pop()
		if p == nil {
			t.Fatal("lane empty early")
		}
		counts[p.tenant]++
	}
	// Both tenants still backlogged after 20 pops: the split must be
	// quantum-fair, i.e. ~1:1, not 10:1.
	if counts["victim"] < 8 {
		t.Errorf("victim got %d of first 20 dispatches (hog %d), want ~10",
			counts["victim"], counts["hog"])
	}
	// Drain the rest; totals must be exact and the lane must empty.
	for p := l.pop(); p != nil; p = l.pop() {
		counts[p.tenant]++
	}
	if counts["hog"] != 100 || counts["victim"] != 10 {
		t.Errorf("drained hog=%d victim=%d, want 100/10", counts["hog"], counts["victim"])
	}
	if l.reqs != 0 || l.items != 0 || len(l.ring) != 0 {
		t.Errorf("drained lane not empty: reqs=%d items=%d ring=%d", l.reqs, l.items, len(l.ring))
	}
}

// TestDRRLaneItemWeighting: fairness is accounted in items, so a
// tenant sending 8-item batches and one sending single items get equal
// item shares, not equal request shares.
func TestDRRLaneItemWeighting(t *testing.T) {
	l := newDRRLane(8)
	for i := 0; i < 10; i++ {
		l.push(mkPending("batcher", 8))
	}
	for i := 0; i < 80; i++ {
		l.push(mkPending("single", 1))
	}
	items := map[string]int{}
	popped := 0
	for popped < 18 { // 2 batcher visits + 16 singles = 32 items even
		p := l.pop()
		items[p.tenant] += itemsOf(p)
		popped++
	}
	if items["batcher"] != items["single"] {
		t.Errorf("item split batcher=%d single=%d, want equal", items["batcher"], items["single"])
	}
}

// TestSubmitFairnessUnderUnequalLoad drives a saturated single-slot
// model with a 10:1 hog:victim backlog through the public Submit path
// and asserts the victim's requests are interleaved near the front of
// the dispatch order instead of waiting behind the hog's entire queue.
func TestSubmitFairnessUnderUnequalLoad(t *testing.T) {
	eng, err := engine.New(hw.A100(), models.NameViTTiny)
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, ModelConfig{
		Name: models.NameViTTiny, Engine: eng,
		MaxBatch:      1, // one request per batch: dispatch order == pop order
		QueueDelay:    50 * time.Microsecond,
		TimeScale:     0.2, // each batch really sleeps ~0.2x modeled latency
		MaxQueueDepth: 512,
	})
	const hogN, victimN = 120, 12
	var order atomic.Int64
	var wg sync.WaitGroup
	var fails atomic.Int64
	victimIdx := make([]int64, victimN)
	submit := func(tenant string, slot *int64) {
		defer wg.Done()
		_, err := s.Submit(context.Background(), &Request{
			Model: models.NameViTTiny, Items: 1, Tenant: tenant,
		})
		if err != nil {
			fails.Add(1)
			return
		}
		idx := order.Add(1)
		if slot != nil {
			*slot = idx
		}
	}
	wg.Add(hogN)
	for i := 0; i < hogN; i++ {
		go submit("hog", nil)
	}
	// Wait for a real hog backlog before the victim shows up.
	waitQueueDepth(t, s, models.NameViTTiny, hogN*3/4)
	wg.Add(victimN)
	for i := 0; i < victimN; i++ {
		go submit("victim", &victimIdx[i])
	}
	wg.Wait()
	if fails.Load() != 0 {
		t.Fatalf("%d submissions failed", fails.Load())
	}
	// With DRR the victim's 12 requests alternate quantum-for-quantum
	// with the hog and finish within a few ring cycles of arriving.
	// Under the old per-lane FIFO they would all land behind the ~90+
	// queued hog requests. Completion-order recording races a little, so
	// assert a generous bound well below the FIFO outcome.
	var worst int64
	for i, idx := range victimIdx {
		if idx == 0 {
			t.Fatalf("victim %d has no completion index", i)
		}
		if idx > worst {
			worst = idx
		}
	}
	if worst > hogN {
		t.Errorf("slowest victim finished at dispatch %d of %d: not interleaved",
			worst, hogN+victimN)
	}
}

// TestTenantQuotaRateIsolation: a rate-quota'd hog sheds with its own
// 429 budget while an unquota'd tenant on the same model sees zero.
func TestTenantQuotaRateIsolation(t *testing.T) {
	cfg := tinyConfig(t)
	cfg.TenantQuotas = map[string]TenantQuota{
		"hog": {RatePerSec: 5, Burst: 5},
	}
	s := newTestServer(t, cfg)
	ctx := context.Background()
	var hogShed int
	for i := 0; i < 25; i++ {
		_, err := s.Submit(ctx, &Request{Model: models.NameViTTiny, Items: 1, Tenant: "hog"})
		if err == nil {
			continue
		}
		if !errors.Is(err, ErrOverloaded) {
			t.Fatalf("hog submit %d: %v, want ErrOverloaded", i, err)
		}
		var qe *QuotaError
		if !errors.As(err, &qe) {
			t.Fatalf("hog 429 is not a QuotaError: %v", err)
		}
		if qe.Tenant != "hog" || qe.Reason != "rate" || qe.RetryAfter <= 0 {
			t.Fatalf("quota error %+v", qe)
		}
		hogShed++
	}
	if hogShed < 10 {
		t.Fatalf("hog shed only %d of 25 at rate 5/s burst 5", hogShed)
	}
	for i := 0; i < 25; i++ {
		if _, err := s.Submit(ctx, &Request{Model: models.NameViTTiny, Items: 1, Tenant: "farm"}); err != nil {
			t.Fatalf("victim submit %d failed beside quota'd hog: %v", i, err)
		}
	}
	m, err := s.MetricsFor(models.NameViTTiny)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Tenants["hog"].Shed; got != int64(hogShed) {
		t.Errorf("hog shed counter %d, want %d", got, hogShed)
	}
	if got := m.Tenants["farm"]; got.Shed != 0 || got.Requests != 25 {
		t.Errorf("victim tenant metrics %+v, want shed=0 requests=25", got)
	}
}

// TestTenantQuotaQueueShare: the share quota caps a tenant's queue
// occupancy at MaxQueueShare x MaxQueueDepth.
func TestTenantQuotaQueueShare(t *testing.T) {
	cfg := tinyConfig(t)
	cfg.MaxQueueDepth = 16
	cfg.TenantQuotas = map[string]TenantQuota{"hog": {MaxQueueShare: 0.25}}
	s := newTestServer(t, cfg)
	rt := s.models[models.NameViTTiny]
	ts := rt.tenantState("hog")
	if err := rt.checkQuota(ts, "hog", 1); err != nil {
		t.Fatalf("under-cap submission refused: %v", err)
	}
	ts.queuedReqs.Store(4) // at 0.25 * 16
	err := rt.checkQuota(ts, "hog", 1)
	var qe *QuotaError
	if !errors.As(err, &qe) || qe.Reason != "share" {
		t.Fatalf("at-cap submission: %v, want share QuotaError", err)
	}
	if !errors.Is(err, ErrOverloaded) || qe.RetryAfter <= 0 {
		t.Errorf("share QuotaError %+v must unwrap to ErrOverloaded with a retry hint", qe)
	}
	// Other tenants are not capped.
	other := rt.tenantState("farm")
	other.queuedReqs.Store(10)
	if err := rt.checkQuota(other, "farm", 1); err != nil {
		t.Errorf("unquota'd tenant refused: %v", err)
	}
}

// TestRetryAfterLaneAware: a huge offline backlog must not inflate the
// Retry-After hint handed to a realtime caller — only the caller's lane
// and the lanes above it count.
func TestRetryAfterLaneAware(t *testing.T) {
	eng, err := engine.New(hw.A100(), models.NameViTTiny)
	if err != nil {
		t.Fatal(err)
	}
	rt := &modelRuntime{cfg: ModelConfig{
		Name: "m", Engine: eng, MaxBatch: 8, Instances: 1, TimeScale: 1,
	}}
	rt.sched = newScheduler(&rt.cfg)
	for i := 0; i < 2500; i++ { // 20k offline items: seconds of drain
		p := mkPending("batch", 8)
		p.class = ClassOffline
		rt.sched.push(p)
	}
	p := mkPending("rt", 1)
	p.class = ClassRealtime
	rt.sched.push(p)
	if got := rt.sched.backlogItemsAtOrAbove(ClassRealtime); got != 1 {
		t.Errorf("realtime backlog %d, want 1 (own lane only)", got)
	}
	if got := rt.sched.backlogItemsAtOrAbove(ClassOnline); got != 1 {
		t.Errorf("online backlog %d, want 1 (realtime + empty online)", got)
	}
	if got := rt.sched.backlogItemsAtOrAbove(ClassOffline); got != 20001 {
		t.Errorf("offline backlog %d, want 20001", got)
	}
	s := &Server{models: map[string]*modelRuntime{"m": rt}}
	rtRetry := s.retryAfterSeconds("m", ClassRealtime)
	offRetry := s.retryAfterSeconds("m", ClassOffline)
	if rtRetry != 1 {
		t.Errorf("realtime Retry-After %ds behind an offline flood, want 1", rtRetry)
	}
	if offRetry <= rtRetry {
		t.Errorf("offline Retry-After %ds not above realtime's %ds despite 20k queued items",
			offRetry, rtRetry)
	}
	// Quota rejections carry the tenant's own drain estimate instead.
	qerr := fmt.Errorf("wrapped: %w", &QuotaError{Tenant: "hog", Reason: "rate", RetryAfter: 2 * time.Second})
	if got := s.retryAfterFor(qerr, "m", ClassRealtime); got != 3 {
		t.Errorf("quota Retry-After %d, want 3 (2s rounded up)", got)
	}
}

// TestOfflineCompletesUnderRealtimeSaturation is the anti-starvation
// regression test: with the realtime lane never empty, an offline
// request must still complete via its guaranteed 1-in-N dispatch share
// instead of starving behind strict priority. TestSchedulerNext pins
// which pop the valve gives away; only a live closed loop shows the
// lane staying full while it does.
func TestOfflineCompletesUnderRealtimeSaturation(t *testing.T) {
	eng, err := engine.New(hw.A100(), models.NameViTTiny)
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, ModelConfig{
		Name: models.NameViTTiny, Engine: eng,
		MaxBatch:       1,
		QueueDelay:     50 * time.Microsecond,
		TimeScale:      0.3,
		MaxQueueDepth:  256,
		RealtimeBudget: -1, // no implicit deadline: nothing evicts, the lane stays full
	})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	const workers = 8 // closed-loop saturation: ~7 realtime requests always queued
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_, _ = s.Submit(context.Background(), &Request{
					Model: models.NameViTTiny, Items: 1, Class: ClassRealtime,
				})
			}
		}()
	}
	defer func() { close(stop); wg.Wait() }()

	waitQueueDepth(t, s, models.NameViTTiny, workers/2) // the realtime backlog is established
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	start := time.Now()
	if _, err := s.Submit(ctx, &Request{
		Model: models.NameViTTiny, Items: 1, Class: ClassOffline,
	}); err != nil {
		t.Fatalf("offline request starved under sustained realtime load: %v", err)
	}
	if d := time.Since(start); d > 3*time.Second {
		t.Errorf("offline request took %v under realtime saturation", d)
	}
}

// TestTenantPropagationThroughRouter: the tenant tag set by a client
// survives client -> router -> replica, shows up in the response echo,
// the replica's per-tenant metrics, and the router's merged view.
func TestTenantPropagationThroughRouter(t *testing.T) {
	srv, hs := newTestReplica(t, 0)
	defer func() { hs.Close(); srv.Close() }()
	router, err := NewRouter([]string{hs.URL}, RouterConfig{Pool: fastPool()})
	if err != nil {
		t.Fatal(err)
	}
	rhs := httptest.NewServer(router.Handler())
	defer func() { rhs.Close(); router.Close() }()

	c := NewClient(rhs.URL)
	resp, err := c.Infer(context.Background(), models.NameViTTiny,
		InferRequestJSON{Items: 1, Tenant: "farm-a"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Tenant != "farm-a" {
		t.Errorf("response tenant %q, want farm-a", resp.Tenant)
	}

	// Header-only identity (no body field) must work too.
	req, _ := http.NewRequest("POST", rhs.URL+"/v2/models/"+models.NameViTTiny+"/infer",
		strings.NewReader(`{"items":1}`))
	req.Header.Set(TenantHeader, "farm-b")
	hr, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("header-tenant request status %d", hr.StatusCode)
	}
	if got := hr.Header.Get(TenantHeader); got != "farm-b" {
		t.Errorf("response %s header %q, want farm-b", TenantHeader, got)
	}

	// Malformed tenant ids are rejected at the router edge.
	req, _ = http.NewRequest("POST", rhs.URL+"/v2/models/"+models.NameViTTiny+"/infer",
		strings.NewReader(`{"items":1}`))
	req.Header.Set(TenantHeader, "bad tenant!")
	hr, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed tenant status %d, want 400", hr.StatusCode)
	}

	// The replica accounted both tenants.
	m, err := srv.MetricsFor(models.NameViTTiny)
	if err != nil {
		t.Fatal(err)
	}
	if m.Tenants["farm-a"].Requests != 1 || m.Tenants["farm-b"].Requests != 1 {
		t.Errorf("replica tenant metrics: %+v", m.Tenants)
	}
	// The router's merged metrics carry the per-tenant sections and its
	// own per-tenant routing counter.
	met := router.Metrics(context.Background())
	if len(met.Models) != 1 {
		t.Fatalf("router models %d, want 1", len(met.Models))
	}
	if met.Models[0].Tenants["farm-a"].Requests != 1 {
		t.Errorf("router merged tenant metrics: %+v", met.Models[0].Tenants)
	}
	if met.Router.RequestsByTenant["farm-a"] != 1 || met.Router.RequestsByTenant["farm-b"] != 1 {
		t.Errorf("router requests_by_tenant: %+v", met.Router.RequestsByTenant)
	}
}

// TestHTTPQuota429 drives an over-quota tenant through the HTTP
// surface: isolated 429s with a positive Retry-After, while another
// tenant against the same server sails through.
func TestHTTPQuota429(t *testing.T) {
	cfg := tinyConfig(t)
	cfg.TenantQuotas = map[string]TenantQuota{"hog": {RatePerSec: 2, Burst: 2}}
	s := newTestServer(t, cfg)
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	inferURL := hs.URL + "/v2/models/" + models.NameViTTiny + "/infer"

	saw429 := false
	for i := 0; i < 10; i++ {
		resp, err := http.Post(inferURL, "application/json",
			strings.NewReader(`{"items":1,"tenant":"hog"}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusOK:
		case http.StatusTooManyRequests:
			saw429 = true
			if ra := resp.Header.Get("Retry-After"); ra == "" || ra == "0" {
				t.Errorf("429 Retry-After header %q, want >= 1", ra)
			}
		default:
			t.Fatalf("hog infer %d: HTTP %d", i, resp.StatusCode)
		}
	}
	if !saw429 {
		t.Fatal("hog tenant never hit its rate quota over HTTP")
	}
	c := NewClient(hs.URL)
	c.MaxRetries = -1 // any victim 429 must surface, not be retried away
	for i := 0; i < 10; i++ {
		if _, err := c.Infer(context.Background(), models.NameViTTiny,
			InferRequestJSON{Items: 1, Tenant: "farm"}); err != nil {
			t.Fatalf("victim infer %d failed: %v", i, err)
		}
	}
}

// TestRouterQuotaGate exercises the router-level tenant admission
// gate: with a quota configured on the router and none on the replica,
// an over-rate tenant is shed at the router — one hop, no proxy, no
// spill — with a QuotaError Retry-After, while another tenant is
// untouched. The rejections land in the router's isolated per-tenant
// shed counters.
func TestRouterQuotaGate(t *testing.T) {
	_, hs := newTestReplica(t, 0)
	defer hs.Close()
	router, err := NewRouter([]string{hs.URL}, RouterConfig{
		Pool:         fastPool(),
		TenantQuotas: map[string]TenantQuota{"hog": {RatePerSec: 1, Burst: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()

	ctx := context.Background()
	shed := 0
	for i := 0; i < 5; i++ {
		_, err := router.Infer(ctx, models.NameViTTiny, InferRequestJSON{Items: 1, Tenant: "hog"})
		if err == nil {
			continue
		}
		var qe *QuotaError
		if !errors.As(err, &qe) {
			t.Fatalf("request %d: want QuotaError, got %v", i, err)
		}
		if qe.Tenant != "hog" || qe.Reason != "rate" {
			t.Fatalf("request %d: QuotaError = %+v, want tenant hog reason rate", i, qe)
		}
		if !errors.Is(err, ErrOverloaded) {
			t.Fatalf("request %d: QuotaError must unwrap to ErrOverloaded", i)
		}
		shed++
	}
	// Burst 1 admits the first request; the rest of the burst is over
	// rate (refill is 1/s and the loop takes far less than a second).
	if shed < 3 {
		t.Fatalf("router gate shed %d of 5 hog requests, want >= 3", shed)
	}
	// An unquota'd tenant passes the gate untouched.
	if _, err := router.Infer(ctx, models.NameViTTiny, InferRequestJSON{Items: 1, Tenant: "farm-a"}); err != nil {
		t.Fatalf("farm-a through quota'd router: %v", err)
	}
	met := router.Metrics(ctx)
	if met.Router.QuotaRejects != int64(shed) {
		t.Fatalf("QuotaRejects = %d, want %d", met.Router.QuotaRejects, shed)
	}
	if met.Router.ShedByTenant["hog"] != int64(shed) {
		t.Fatalf("ShedByTenant[hog] = %d, want %d", met.Router.ShedByTenant["hog"], shed)
	}
	if met.Router.ShedByTenant["farm-a"] != 0 {
		t.Fatalf("ShedByTenant[farm-a] = %d, want 0", met.Router.ShedByTenant["farm-a"])
	}
}
