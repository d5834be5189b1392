package metrics

import (
	"math"
	"strconv"
	"strings"
	"sync"
	"testing"
	"unsafe"
)

// TestLatencyRecorderBoundedMemory is the regression test for the
// unbounded sample slice: a long-lived server observing forever must
// stay O(1). The recorder is a fixed struct with no per-observation
// storage, and Observe allocates nothing.
func TestLatencyRecorderBoundedMemory(t *testing.T) {
	var r LatencyRecorder
	if allocs := testing.AllocsPerRun(1000, func() { r.Observe(0.003) }); allocs != 0 {
		t.Errorf("Observe allocates %.1f objects per call, want 0", allocs)
	}
	const n = 1_000_000
	for i := 0; i < n; i++ {
		r.Observe(float64(i%1000) * 1e-5) // 0..10ms sweep
	}
	if got := r.Count(); got < n {
		t.Errorf("count %d, want >= %d", got, n)
	}
	// The whole recorder is a fixed-size struct: its footprint after 1M
	// observations is the same few hundred bytes as at zero.
	if size := unsafe.Sizeof(r); size > 1<<10 {
		t.Errorf("recorder footprint %d bytes, want O(1) well under 1KiB", size)
	}
	if got := len(r.Snapshot().Counts); got != NumLatencyBuckets {
		t.Errorf("snapshot has %d buckets, want fixed %d", got, NumLatencyBuckets)
	}
}

// TestLatencyRecorderAccuracy checks the exact moments and the bounded
// relative error of interpolated percentiles.
func TestLatencyRecorderAccuracy(t *testing.T) {
	var r LatencyRecorder
	var sum float64
	const n = 10000
	for i := 1; i <= n; i++ {
		v := float64(i) * 1e-5 // 10µs .. 100ms uniform
		r.Observe(v)
		sum += v
	}
	s := r.Snapshot().Summary()
	if s.N != n {
		t.Fatalf("n %d", s.N)
	}
	if math.Abs(s.Mean-sum/n) > 1e-9 {
		t.Errorf("mean %v, want exact %v", s.Mean, sum/n)
	}
	if s.Min != 1e-5 || s.Max != n*1e-5 {
		t.Errorf("extremes [%v, %v], want exact [1e-5, %v]", s.Min, s.Max, n*1e-5)
	}
	if !strings.HasPrefix(s.String(), "n=10000 mean=0.050") {
		t.Errorf("summary line %q", s)
	}
	for _, p := range []float64{50, 90, 95, 99} {
		got := r.Snapshot().Quantile(p)
		want := p / 100 * n * 1e-5
		if got < want/1.34 || got > want*1.34 {
			t.Errorf("p%.0f = %v, want %v within one bucket width", p, got, want)
		}
	}
	// Quantiles are monotone in p and clamped to the observed range.
	if s.P50 > s.P90 || s.P90 > s.P95 || s.P95 > s.P99 || s.P99 > s.Max || s.P50 < s.Min {
		t.Errorf("quantiles out of order: %+v", s)
	}
}

func TestBucketIndexBoundaries(t *testing.T) {
	bounds := LatencyBucketBounds()
	if len(bounds) != NumLatencyBuckets || !math.IsInf(bounds[NumLatencyBuckets-1], 1) {
		t.Fatalf("bounds %v", bounds)
	}
	for i, upper := range bounds[:NumLatencyBuckets-1] {
		// An observation exactly at an upper bound lands in that bucket
		// (buckets are (lo, hi]), and just above it lands in the next.
		if got := bucketIndex(upper); got != i {
			t.Errorf("bucketIndex(%v) = %d, want %d", upper, got, i)
		}
		if got := bucketIndex(upper * (1 + 1e-12)); got != i+1 {
			t.Errorf("bucketIndex(just above %v) = %d, want %d", upper, got, i+1)
		}
	}
	if got := bucketIndex(0); got != 0 {
		t.Errorf("bucketIndex(0) = %d", got)
	}
	if got := bucketIndex(1e9); got != NumLatencyBuckets-1 {
		t.Errorf("bucketIndex(1e9) = %d, want overflow", got)
	}
}

// TestHistogramMergeIsExact merges two skewed replicas and checks the
// merged quantiles equal those of a single recorder that saw every
// observation — and that the old count-weighted mean of percentiles
// would have been wrong.
func TestHistogramMergeIsExact(t *testing.T) {
	var a, b, all LatencyRecorder
	// Replica A: 900 fast observations at ~1ms.
	for i := 0; i < 900; i++ {
		v := 0.001 + float64(i%10)*1e-6
		a.Observe(v)
		all.Observe(v)
	}
	// Replica B: 100 slow observations at ~1s.
	for i := 0; i < 100; i++ {
		v := 1.0 + float64(i)*1e-3
		b.Observe(v)
		all.Observe(v)
	}
	merged := a.Snapshot().Merge(b.Snapshot())
	want := all.Snapshot()
	if merged.Count != want.Count || merged.Min != want.Min || merged.Max != want.Max {
		t.Fatalf("merged moments %+v, want %+v", merged, want)
	}
	if math.Abs(merged.Sum-want.Sum) > 1e-9 {
		t.Fatalf("merged sum %v, want %v", merged.Sum, want.Sum)
	}
	for i := range want.Counts {
		if merged.Counts[i] != want.Counts[i] {
			t.Fatalf("bucket %d: merged %d, want %d", i, merged.Counts[i], want.Counts[i])
		}
	}
	for _, p := range []float64{50, 95, 99, 99.5} {
		if got, exact := merged.Quantile(p), want.Quantile(p); got != exact {
			t.Errorf("merged p%g = %v, combined = %v; merge not exact", p, got, exact)
		}
	}
	// Rank 990 of the 1000 merged observations is deep in the slow tail
	// (~1s). The old aggregation — count-weighted mean of per-replica
	// p99s — lands at ~0.9*1ms + 0.1*1s ≈ 0.1s: an order of magnitude
	// low on the merged tail.
	truthP99 := merged.Quantile(99)
	wa, wb := 900.0/1000, 100.0/1000
	weightedMean := wa*a.Snapshot().Quantile(99) + wb*b.Snapshot().Quantile(99)
	if truthP99 < 0.5 {
		t.Fatalf("merged p99 %v, want in the ~1s tail", truthP99)
	}
	if weightedMean > truthP99/2 {
		t.Fatalf("weighted-mean p99 %v is not clearly wrong vs %v; test is vacuous", weightedMean, truthP99)
	}
}

// TestLatencyRecorderConcurrentMerge exercises concurrent Observe and
// Snapshot/Merge under -race, and checks no observation is lost.
func TestLatencyRecorderConcurrentMerge(t *testing.T) {
	var r LatencyRecorder
	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() { // concurrent reader: snapshots + merges while observing
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
				acc := r.Snapshot().Merge(r.Snapshot())
				_ = acc.Quantile(99)
				_ = acc.Summary()
			}
		}
	}()
	const writers, per = 16, 2000
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < per; j++ {
				r.Observe(float64(i*j%997) * 1e-6)
			}
		}(i)
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	s := r.Snapshot()
	if s.Count != writers*per {
		t.Errorf("count %d, want %d", s.Count, writers*per)
	}
	if r.Count() != writers*per {
		t.Errorf("Count() %d, want %d", r.Count(), writers*per)
	}
}

func TestCSVQuoting(t *testing.T) {
	tb := NewTable("", "name", "note,with,commas")
	tb.AddRow(`plain`, `a,b`)
	tb.AddRow(`quo"te`, "line\nbreak")
	got := tb.CSV()
	want := "name,\"note,with,commas\"\n" +
		"plain,\"a,b\"\n" +
		"\"quo\"\"te\",\"line\nbreak\"\n"
	if got != want {
		t.Errorf("CSV output:\n%q\nwant:\n%q", got, want)
	}
	// Plain tables stay byte-identical to the old renderer.
	plain := NewTable("", "a", "b")
	plain.AddRow("x", 1.0)
	if out := plain.CSV(); out != "a,b\nx,1.00\n" {
		t.Errorf("plain CSV %q", out)
	}
}

func TestPromExposition(t *testing.T) {
	var r LatencyRecorder
	r.Observe(0.002)
	r.Observe(0.004)
	r.Observe(2.5)
	var b strings.Builder
	pw := PromWriter{W: &b}
	pw.Head("harvest_queue_latency_seconds", "histogram", "queue wait")
	pw.Hist("harvest_queue_latency_seconds", PromLabel("model", `Vi"T`), r.Snapshot())
	pw.Head("harvest_requests_total", "counter", "served")
	pw.Int("harvest_requests_total", PromLabels(PromLabel("model", "ViT"), PromLabel("class", "online")), 7)
	out := b.String()
	for _, want := range []string{
		"# TYPE harvest_queue_latency_seconds histogram",
		`le="+Inf"} 3`,
		`harvest_queue_latency_seconds_count{model="Vi\"T"} 3`,
		`harvest_requests_total{model="ViT",class="online"} 7`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// Cumulative buckets are monotone non-decreasing and end at count.
	lastCum := int64(-1)
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "harvest_queue_latency_seconds_bucket") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		cum, err := strconv.ParseInt(line[sp+1:], 10, 64)
		if err != nil {
			t.Fatalf("bad bucket line %q: %v", line, err)
		}
		if cum < lastCum {
			t.Errorf("bucket counts not cumulative: %q after %d", line, lastCum)
		}
		lastCum = cum
	}
	if lastCum != 3 {
		t.Errorf("final cumulative bucket %d, want 3", lastCum)
	}
}
