package serve

import (
	"sort"

	"harvest/internal/metrics"
	"harvest/internal/trace"
)

// The serving metrics model. The wire structs below are the only
// snapshot type: runtimes fill them directly, GET /v2/metrics encodes
// them, and each numeric field is declared exactly once in a family
// table beside its struct. That one row drives both the Prometheus
// exposition (writeFamilies) and the fleet merge (mergeFamilies), on
// the replica and on the router alike. A new metric is a struct field,
// its table row, its fill in the snapshot, and its Inc/Observe site.

// LatencySummaryJSON summarizes a latency distribution in
// milliseconds. Alongside the derived percentiles it ships the raw
// histogram (shared bucket layout, see metrics.LatencyBucketBounds)
// plus sum and extremes, so an aggregator can merge distributions from
// many replicas exactly instead of averaging percentiles.
type LatencySummaryJSON struct {
	Count  int     `json:"count"`
	MeanMs float64 `json:"mean_ms"`
	P50Ms  float64 `json:"p50_ms"`
	P95Ms  float64 `json:"p95_ms"`
	P99Ms  float64 `json:"p99_ms"`
	MinMs  float64 `json:"min_ms,omitempty"`
	MaxMs  float64 `json:"max_ms"`
	SumMs  float64 `json:"sum_ms,omitempty"`
	// Buckets holds per-bucket observation counts in the shared layout,
	// always metrics.NumLatencyBuckets long. A summary with any other
	// length is malformed and carries no data for merging or exposition.
	Buckets []uint64 `json:"buckets,omitempty"`
}

// LatencySummary converts a histogram snapshot (seconds) to the wire
// summary (milliseconds). The bucket slice is shared, not copied.
func LatencySummary(h metrics.HistogramSnapshot) LatencySummaryJSON {
	s := h.Summary()
	return LatencySummaryJSON{
		Count:   s.N,
		MeanMs:  s.Mean * 1000,
		P50Ms:   s.P50 * 1000,
		P95Ms:   s.P95 * 1000,
		P99Ms:   s.P99 * 1000,
		MinMs:   s.Min * 1000,
		MaxMs:   s.Max * 1000,
		SumMs:   h.Sum * 1000,
		Buckets: h.Counts,
	}
}

// histogram reconstructs the mergeable snapshot behind a wire summary,
// sharing its bucket slice. ok is false for a malformed summary (no
// buckets, or an incompatible layout).
func (j LatencySummaryJSON) histogram() (metrics.HistogramSnapshot, bool) {
	if len(j.Buckets) != metrics.NumLatencyBuckets {
		return metrics.HistogramSnapshot{}, false
	}
	h := metrics.HistogramSnapshot{
		Sum:    j.SumMs / 1000,
		Min:    j.MinMs / 1000,
		Max:    j.MaxMs / 1000,
		Counts: j.Buckets,
	}
	for _, c := range h.Counts {
		h.Count += c
	}
	return h, true
}

// mergeLatency folds two latency summaries exactly: bucket counts add
// element-wise and the percentiles are recomputed from the merged
// distribution. A malformed side contributes nothing — it is never
// approximated from its percentile fields — and a side with nothing to
// add leaves the other untouched.
func mergeLatency(a, b LatencySummaryJSON) LatencySummaryJSON {
	ha, okA := a.histogram()
	hb, okB := b.histogram()
	switch {
	case !okA && !okB:
		return LatencySummaryJSON{}
	case !okB || (okA && hb.Count == 0):
		return a
	case !okA || ha.Count == 0:
		return b
	}
	return LatencySummary(ha.Merge(hb))
}

// ModelMetricsJSON is one model's entry in GET /v2/metrics.
type ModelMetricsJSON struct {
	Model     string `json:"model"`
	Requests  int64  `json:"requests"`
	Items     int64  `json:"items"`
	Batches   int64  `json:"batches"`
	Errors    int64  `json:"errors"`
	Cancelled int64  `json:"cancelled"`
	// Shed counts submissions rejected with HTTP 429 by admission
	// control (queue full or tenant quota).
	Shed int64 `json:"shed"`
	// Expired counts admitted requests evicted past their deadline
	// (HTTP 504).
	Expired    int64              `json:"expired"`
	QueueDepth int64              `json:"queue_depth"`
	QueueMs    LatencySummaryJSON `json:"queue_ms"`
	ComputeMs  LatencySummaryJSON `json:"compute_ms"`
	// PreprocessMs summarizes the encoded-image preprocess stage
	// (count 0 for models never hit through that path).
	PreprocessMs LatencySummaryJSON `json:"preprocess_ms"`
	// QueueMsByClass decomposes queue latency per SLO class, keyed by
	// class name, for classes that served requests.
	QueueMsByClass map[string]LatencySummaryJSON `json:"queue_ms_by_class,omitempty"`
	// Tenants decomposes activity per tenant, keyed by tenant id, once
	// any request has carried tenant identity (the default tenant
	// included).
	Tenants map[string]TenantMetricsJSON `json:"tenants,omitempty"`
}

// TenantMetricsJSON is one tenant's entry in a model's metrics block.
type TenantMetricsJSON struct {
	Requests int64 `json:"requests"`
	Items    int64 `json:"items"`
	// Shed is the tenant's isolated 429 budget: its own quota and
	// queue-full rejections.
	Shed    int64 `json:"shed"`
	Expired int64 `json:"expired"`
	// QueueDepth is the tenant's current queued-request occupancy.
	QueueDepth int64              `json:"queue_depth"`
	QueueMs    LatencySummaryJSON `json:"queue_ms"`
}

// family declares one metric of a snapshot struct T: its Prometheus
// identity and the wire field that holds it.
type family[T any] struct {
	name string
	typ  string // "counter", "gauge" or "histogram"
	help string
	// Exactly one accessor is set: i64 for counters and gauges, lat for
	// histograms.
	i64 func(*T) *int64
	lat func(*T) *LatencySummaryJSON
	// sparse histograms expose no series until they hold observations.
	sparse bool
}

var modelFamilies = []family[ModelMetricsJSON]{
	{name: "harvest_requests_total", typ: "counter", help: "Requests completed successfully.",
		i64: func(m *ModelMetricsJSON) *int64 { return &m.Requests }},
	{name: "harvest_items_total", typ: "counter", help: "Images served in successful requests.",
		i64: func(m *ModelMetricsJSON) *int64 { return &m.Items }},
	{name: "harvest_batches_total", typ: "counter", help: "Fused batches executed.",
		i64: func(m *ModelMetricsJSON) *int64 { return &m.Batches }},
	{name: "harvest_errors_total", typ: "counter", help: "Requests failed by the backend or shutdown.",
		i64: func(m *ModelMetricsJSON) *int64 { return &m.Errors }},
	{name: "harvest_cancelled_total", typ: "counter", help: "Requests withdrawn before dispatch.",
		i64: func(m *ModelMetricsJSON) *int64 { return &m.Cancelled }},
	{name: "harvest_shed_total", typ: "counter", help: "Submissions rejected by admission control.",
		i64: func(m *ModelMetricsJSON) *int64 { return &m.Shed }},
	{name: "harvest_expired_total", typ: "counter", help: "Admitted requests shed past their deadline.",
		i64: func(m *ModelMetricsJSON) *int64 { return &m.Expired }},
	{name: "harvest_queue_depth", typ: "gauge", help: "Requests admitted but not yet dispatched.",
		i64: func(m *ModelMetricsJSON) *int64 { return &m.QueueDepth }},
	{name: "harvest_queue_latency_seconds", typ: "histogram", help: "Wall time from enqueue to batch execution start.",
		lat: func(m *ModelMetricsJSON) *LatencySummaryJSON { return &m.QueueMs }},
	{name: "harvest_compute_latency_seconds", typ: "histogram", help: "Execution time of the fused batch.",
		lat: func(m *ModelMetricsJSON) *LatencySummaryJSON { return &m.ComputeMs }},
	{name: "harvest_preprocess_latency_seconds", typ: "histogram", help: "Encoded-image preprocess stage duration per request.",
		lat: func(m *ModelMetricsJSON) *LatencySummaryJSON { return &m.PreprocessMs }, sparse: true},
}

// classFamilies declares the per-class decomposition: one family over
// the entries of ModelMetricsJSON.QueueMsByClass.
var classFamilies = []family[LatencySummaryJSON]{
	{name: "harvest_class_queue_latency_seconds", typ: "histogram", help: "Queue latency per SLO class.",
		lat: func(s *LatencySummaryJSON) *LatencySummaryJSON { return s }},
}

var tenantFamilies = []family[TenantMetricsJSON]{
	{name: "harvest_tenant_requests_total", typ: "counter", help: "Requests served per tenant.",
		i64: func(t *TenantMetricsJSON) *int64 { return &t.Requests }},
	{name: "harvest_tenant_items_total", typ: "counter", help: "Images served per tenant.",
		i64: func(t *TenantMetricsJSON) *int64 { return &t.Items }},
	{name: "harvest_tenant_shed_total", typ: "counter", help: "Per-tenant quota and queue-full rejections.",
		i64: func(t *TenantMetricsJSON) *int64 { return &t.Shed }},
	{name: "harvest_tenant_expired_total", typ: "counter", help: "Per-tenant deadline evictions.",
		i64: func(t *TenantMetricsJSON) *int64 { return &t.Expired }},
	{name: "harvest_tenant_queue_depth", typ: "gauge", help: "Queued requests per tenant.",
		i64: func(t *TenantMetricsJSON) *int64 { return &t.QueueDepth }},
	{name: "harvest_tenant_queue_latency_seconds", typ: "histogram", help: "Queue latency per tenant.",
		lat: func(t *TenantMetricsJSON) *LatencySummaryJSON { return &t.QueueMs }, sparse: true},
}

// labeled pairs one snapshot with its rendered Prometheus label set.
type labeled[T any] struct {
	labels string
	v      *T
}

// writeFamilies renders every declared family of T over a set of
// labeled snapshots. Malformed latency summaries expose no series.
func writeFamilies[T any](pw metrics.PromWriter, fams []family[T], rows []labeled[T]) {
	for _, f := range fams {
		pw.Head(f.name, f.typ, f.help)
		for _, r := range rows {
			if f.lat == nil {
				pw.Int(f.name, r.labels, *f.i64(r.v))
			} else if h, ok := f.lat(r.v).histogram(); ok && (h.Count > 0 || !f.sparse) {
				pw.Hist(f.name, r.labels, h)
			}
		}
	}
}

// mergeFamilies folds src into dst over every declared family of T:
// counters and gauges sum, latency summaries merge bucket-wise.
func mergeFamilies[T any](fams []family[T], dst, src *T) {
	for _, f := range fams {
		if f.lat == nil {
			*f.i64(dst) += *f.i64(src)
		} else {
			*f.lat(dst) = mergeLatency(*f.lat(dst), *f.lat(src))
		}
	}
}

// merge folds another replica's snapshot of the same model into m,
// per-class and per-tenant decompositions included.
func (m *ModelMetricsJSON) merge(src *ModelMetricsJSON) {
	mergeFamilies(modelFamilies, m, src)
	for class, s := range src.QueueMsByClass {
		if m.QueueMsByClass == nil {
			m.QueueMsByClass = make(map[string]LatencySummaryJSON, len(src.QueueMsByClass))
		}
		m.QueueMsByClass[class] = mergeLatency(m.QueueMsByClass[class], s)
	}
	for tenant, t := range src.Tenants {
		if m.Tenants == nil {
			m.Tenants = make(map[string]TenantMetricsJSON, len(src.Tenants))
		}
		cur := m.Tenants[tenant]
		mergeFamilies(tenantFamilies, &cur, &t)
		m.Tenants[tenant] = cur
	}
}

// writeModelProm renders the per-model, per-class and per-tenant
// families of a set of model snapshots: a replica's own, or the
// router's fleet merge.
func writeModelProm(pw metrics.PromWriter, ms []ModelMetricsJSON) {
	models := make([]labeled[ModelMetricsJSON], len(ms))
	var classes []labeled[LatencySummaryJSON]
	var tenants []labeled[TenantMetricsJSON]
	for i := range ms {
		m := &ms[i]
		model := metrics.PromLabel("model", m.Model)
		models[i] = labeled[ModelMetricsJSON]{model, m}
		for _, class := range sortedKeys(m.QueueMsByClass) {
			s := m.QueueMsByClass[class]
			classes = append(classes, labeled[LatencySummaryJSON]{
				metrics.PromLabels(model, metrics.PromLabel("class", class)), &s})
		}
		for _, tenant := range sortedKeys(m.Tenants) {
			t := m.Tenants[tenant]
			tenants = append(tenants, labeled[TenantMetricsJSON]{
				metrics.PromLabels(model, metrics.PromLabel("tenant", tenant)), &t})
		}
	}
	writeFamilies(pw, modelFamilies, models)
	writeFamilies(pw, classFamilies, classes)
	writeFamilies(pw, tenantFamilies, tenants)
}

// writeTraceProm exposes a trace ring buffer's eviction count.
func writeTraceProm(pw metrics.PromWriter, rec *trace.Recorder) {
	if rec != nil {
		pw.Head("harvest_trace_spans_dropped_total", "counter", "Trace spans evicted from the ring buffer.")
		pw.Int("harvest_trace_spans_dropped_total", "", int64(rec.Dropped()))
	}
}

// sortedKeys returns a map's keys in sorted order, for deterministic
// exposition and aggregation output.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
