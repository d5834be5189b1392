package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"testing"

	"harvest/internal/imaging"
	"harvest/internal/metrics"
)

// checkFamilies asserts the declare-once rule for one snapshot struct:
// every int64 and LatencySummaryJSON field of T has exactly one row in
// its family table, and every row is well-formed.
func checkFamilies[T any](t *testing.T, fams []family[T], seen map[string]bool) {
	t.Helper()
	var v T
	rv := reflect.ValueOf(&v).Elem()
	for i := 0; i < rv.NumField(); i++ {
		field, rows := rv.Type().Field(i).Name, 0
		switch addr := rv.Field(i).Addr().Interface().(type) {
		case *int64:
			for _, f := range fams {
				if f.i64 != nil && f.i64(&v) == addr {
					rows++
				}
			}
		case *LatencySummaryJSON:
			for _, f := range fams {
				if f.lat != nil && f.lat(&v) == addr {
					rows++
				}
			}
		default:
			continue
		}
		if rows != 1 {
			t.Errorf("%T.%s has %d family rows, want exactly 1", v, field, rows)
		}
	}
	for _, f := range fams {
		if (f.i64 == nil) == (f.lat == nil) {
			t.Errorf("family %s must set exactly one accessor", f.name)
		}
		if (f.lat != nil && f.typ != "histogram") || (f.lat == nil && f.typ != "counter" && f.typ != "gauge") {
			t.Errorf("family %s has type %q for its accessor", f.name, f.typ)
		}
		if f.help == "" || seen[f.name] {
			t.Errorf("family %s: empty help or declared twice", f.name)
		}
		seen[f.name] = true
	}
}

func TestFamilyTablesDeclareEveryFieldOnce(t *testing.T) {
	seen := map[string]bool{}
	checkFamilies(t, modelFamilies, seen)
	checkFamilies(t, tenantFamilies, seen)
	checkFamilies(t, classFamilies, seen)
	checkFamilies(t, routerFamilies, seen)
	checkFamilies(t, replicaFamilies, seen)
}

// newTrafficReplica starts a replica serving a preprocessing model
// under a tenant quota and drives multi-tenant, multi-class and
// images_b64 traffic through it, so every optional block of its
// metrics surfaces is populated.
func newTrafficReplica(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	cfg, _ := preprocConfig(t)
	cfg.TenantQuotas = map[string]TenantQuota{"hog": {RatePerSec: 0.001, Burst: 1}}
	s := newTestServer(t, cfg)
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(hs.Close)
	driveTraffic(t, s.Handler(), http.StatusOK)
	return s, hs
}

// driveTraffic sends the fixture mix through a server or router
// handler: three classes over two tenants, one encoded image, and a
// hog that gets hogFirst on its first request and is shed by its quota
// on the second.
func driveTraffic(t *testing.T, h http.Handler, hogFirst int) {
	t.Helper()
	for i, body := range []InferRequestJSON{
		{Items: 1, Class: "realtime", DeadlineMs: 5000, Tenant: "farm-a"},
		{Items: 2, Class: "online", Tenant: "farm-a"},
		{Items: 1, Class: "offline", Tenant: "farm-b"},
		{Images: [][]byte{encodedTestImage(t, imaging.FormatJPEG)}, ImageFormat: "jpeg", Tenant: "farm-b"},
	} {
		if rec, _ := postInfer(t, h, "imagenet", body, nil); rec.Code != http.StatusOK {
			t.Fatalf("fixture request %d: HTTP %d: %s", i, rec.Code, rec.Body)
		}
	}
	for _, want := range []int{hogFirst, http.StatusTooManyRequests} {
		if rec, _ := postInfer(t, h, "imagenet", InferRequestJSON{Items: 1, Tenant: "hog"}, nil); rec.Code != want {
			t.Fatalf("hog: HTTP %d, want %d", rec.Code, want)
		}
	}
}

// jsonKeyPaths returns the sorted set of key paths of a JSON document.
// Array elements collapse to "[]" and the keys of the per-class and
// per-tenant maps to "*", so the set describes the wire schema, not
// the traffic.
func jsonKeyPaths(t *testing.T, body []byte) []string {
	t.Helper()
	var doc any
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	dynamic := map[string]bool{"queue_ms_by_class": true, "tenants": true, "requests_by_tenant": true, "shed_by_tenant": true}
	set := map[string]bool{}
	var walk func(path, parent string, v any)
	walk = func(path, parent string, v any) {
		switch v := v.(type) {
		case map[string]any:
			for k, child := range v {
				key := k
				if dynamic[parent] {
					key = "*"
				}
				walk(path+"."+key, k, child)
			}
		case []any:
			for _, child := range v {
				walk(path+"[]", "", child)
			}
		default:
			set[path] = true
		}
	}
	walk("", "", doc)
	return sortedKeys(set)
}

func getBody(t *testing.T, h http.Handler, path string) []byte {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET %s: HTTP %d", path, rec.Code)
	}
	return rec.Body.Bytes()
}

// latencyKeys are the wire keys of one populated LatencySummaryJSON.
var latencyKeys = []string{"buckets[]", "count", "max_ms", "mean_ms", "min_ms", "p50_ms", "p95_ms", "p99_ms", "sum_ms"}

// modelWireKeys is the checked-in /v2/metrics schema of one model
// entry, shared by the replica and the router (whose models section
// must decode as a replica's).
func modelWireKeys() []string {
	keys := []string{"batches", "cancelled", "errors", "expired", "items", "model", "queue_depth", "requests", "shed",
		"tenants.*.expired", "tenants.*.items", "tenants.*.queue_depth", "tenants.*.requests", "tenants.*.shed"}
	for _, summary := range []string{"queue_ms", "compute_ms", "preprocess_ms", "queue_ms_by_class.*", "tenants.*.queue_ms"} {
		for _, k := range latencyKeys {
			keys = append(keys, summary+"."+k)
		}
	}
	for i, k := range keys {
		keys[i] = ".models[]." + k
	}
	return keys
}

// TestMetricsWireKeys pins the JSON key set of GET /v2/metrics on a
// replica and on a router after the fixture traffic: the wire schema
// must not move when the metrics model behind it does.
func TestMetricsWireKeys(t *testing.T) {
	a, hsA := newTrafficReplica(t)
	_, hsB := newTrafficReplica(t)
	want := modelWireKeys()
	sort.Strings(want)
	if got := jsonKeyPaths(t, getBody(t, a.Handler(), "/v2/metrics")); !reflect.DeepEqual(got, want) {
		t.Errorf("replica /v2/metrics keys:\n got %q\nwant %q", got, want)
	}

	router, err := NewRouter([]string{hsA.URL, hsB.URL}, RouterConfig{
		Pool:         fastPool(),
		TenantQuotas: map[string]TenantQuota{"hog": {RatePerSec: 0.001, Burst: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	// Both replicas' hog budgets are spent: the router admits the first
	// hog request, spills it across the pool and answers 429.
	driveTraffic(t, router.Handler(), http.StatusTooManyRequests)
	for _, k := range latencyKeys {
		want = append(want, ".router.latency_ms."+k)
	}
	want = append(want, ".router.requests", ".router.errors", ".router.failovers", ".router.spills",
		".router.quota_rejects", ".router.streams", ".router.healthy_replicas",
		".router.requests_by_tenant.*", ".router.shed_by_tenant.*",
		".router.replicas[].name", ".router.replicas[].url", ".router.replicas[].healthy",
		".router.replicas[].consecutive_errors", ".router.replicas[].ejections",
		".router.replicas[].inflight", ".router.replicas[].queue_depth")
	sort.Strings(want)
	if got := jsonKeyPaths(t, getBody(t, router.Handler(), "/v2/metrics")); !reflect.DeepEqual(got, want) {
		t.Errorf("router /v2/metrics keys:\n got %q\nwant %q", got, want)
	}
}

// TestRouterMetricsIsMergeOfReplicaBodies: the router's models section
// is exactly the element-wise merge of its replicas' /v2/metrics
// bodies — counters summed, percentiles those of the bucket-summed
// histogram.
func TestRouterMetricsIsMergeOfReplicaBodies(t *testing.T) {
	_, hsA := newTrafficReplica(t)
	b, hsB := newTrafficReplica(t)
	// Skew B so the two bodies differ.
	for i := 0; i < 7; i++ {
		if rec, _ := postInfer(t, b.Handler(), "imagenet", InferRequestJSON{Items: 3, Tenant: "farm-c"}, nil); rec.Code != http.StatusOK {
			t.Fatalf("HTTP %d", rec.Code)
		}
	}
	router, err := NewRouter([]string{hsA.URL, hsB.URL}, RouterConfig{Pool: fastPool()})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	ctx := context.Background()
	bodyA, err := NewClient(hsA.URL).Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	bodyB, err := NewClient(hsB.URL).Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	ma, mb := bodyA.Models[0], bodyB.Models[0]
	want := ModelMetricsJSON{Model: "imagenet"}
	want.merge(&ma)
	want.merge(&mb)
	got := router.Metrics(ctx).Models
	if len(got) != 1 || !reflect.DeepEqual(got[0], want) {
		t.Fatalf("router models %+v\nwant merge %+v", got, want)
	}

	agg := got[0]
	if agg.Requests != ma.Requests+mb.Requests || agg.Shed != ma.Shed+mb.Shed || agg.Shed != 2 ||
		agg.Items != ma.Items+mb.Items || agg.Batches != ma.Batches+mb.Batches {
		t.Errorf("counters not summed: %+v from %+v and %+v", agg, ma, mb)
	}
	if ta, tb := ma.Tenants["farm-a"], mb.Tenants["farm-a"]; agg.Tenants["farm-a"].Requests != ta.Requests+tb.Requests {
		t.Errorf("tenant counters not summed: %+v", agg.Tenants["farm-a"])
	}
	if agg.Tenants["farm-c"].Requests != 7 || agg.Tenants["hog"].Shed != 2 {
		t.Errorf("tenant union wrong: %+v", agg.Tenants)
	}
	// Independent percentile check: sum the two bucket vectors by hand.
	sum := metrics.HistogramSnapshot{
		Counts: make([]uint64, metrics.NumLatencyBuckets),
		Min:    min(ma.QueueMs.MinMs, mb.QueueMs.MinMs) / 1000,
		Max:    max(ma.QueueMs.MaxMs, mb.QueueMs.MaxMs) / 1000,
	}
	for i := range sum.Counts {
		sum.Counts[i] = ma.QueueMs.Buckets[i] + mb.QueueMs.Buckets[i]
		sum.Count += sum.Counts[i]
	}
	if agg.QueueMs.Count != int(sum.Count) || agg.QueueMs.Count != ma.QueueMs.Count+mb.QueueMs.Count {
		t.Errorf("merged count %d, want %d", agg.QueueMs.Count, sum.Count)
	}
	for _, p := range []struct {
		q   float64
		got float64
	}{{50, agg.QueueMs.P50Ms}, {95, agg.QueueMs.P95Ms}, {99, agg.QueueMs.P99Ms}} {
		if want := sum.Quantile(p.q) * 1000; p.got != want {
			t.Errorf("merged p%v = %v ms, want the bucket-merged histogram's %v ms", p.q, p.got, want)
		}
	}
}

// TestMergeLatencySkipsMalformed: a summary without the full bucket
// vector is outside input the merge must neither trust nor approximate.
func TestMergeLatencySkipsMalformed(t *testing.T) {
	var r metrics.LatencyRecorder
	observeN(&r, 10, 0.002)
	good := LatencySummary(r.Snapshot())
	bucketless := LatencySummaryJSON{Count: 1000, MeanMs: 900, P50Ms: 900, P95Ms: 950, P99Ms: 990, MaxMs: 999}
	short := bucketless
	short.Buckets = make([]uint64, metrics.NumLatencyBuckets-1)
	short.Buckets[3] = 1000
	for name, bad := range map[string]LatencySummaryJSON{"bucket-less": bucketless, "wrong-length": short} {
		if got := mergeLatency(good, bad); !reflect.DeepEqual(got, good) {
			t.Errorf("%s right operand changed the merge: %+v", name, got)
		}
		if got := mergeLatency(bad, good); !reflect.DeepEqual(got, good) {
			t.Errorf("%s left operand changed the merge: %+v", name, got)
		}
		if got := mergeLatency(bad, bad); !reflect.DeepEqual(got, LatencySummaryJSON{}) {
			t.Errorf("%s merged with itself invented data: %+v", name, got)
		}
		agg := ModelMetricsJSON{Model: "m"}
		agg.merge(&ModelMetricsJSON{Model: "m", Requests: 3, QueueMs: bad,
			QueueMsByClass: map[string]LatencySummaryJSON{"online": bad},
			Tenants:        map[string]TenantMetricsJSON{"farm": {Requests: 3, QueueMs: bad}}})
		if agg.Requests != 3 || agg.Tenants["farm"].Requests != 3 {
			t.Errorf("%s: counters lost beside a malformed summary: %+v", name, agg)
		}
		if agg.QueueMs.Count != 0 || agg.QueueMsByClass["online"].P99Ms != 0 || agg.Tenants["farm"].QueueMs.P99Ms != 0 {
			t.Errorf("%s: malformed summary leaked into the aggregate: %+v", name, agg)
		}
	}
}
