package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// schemaVersion names the result schema. Bump it when a field changes
// meaning; compare refuses to mix versions.
const schemaVersion = "harvest-benchmark/v1"

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSpec is one entry of BENCHMARK.json's end_to_end or per_layer
// list. The Go lists are the source of truth for what a run prints;
// a test keeps BENCHMARK.json equal to them.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEndNames lists the end-to-end metrics in BENCHMARK.json order.
// Every workload reports every one of them.
var endToEndNames = []string{
	"setup_s", "throughput_ops_per_s", "latency_p50_ms", "latency_p95_ms",
	"slo_share", "cpu_ms_per_op", "alloc_kb_per_op", "peak_rss_mb",
}

// countNames are the boundary counts read from the program's public
// metric surface, and the diagnostics that ride with them.
var countNames = []struct{ name, unit string }{
	{"serve.batch.mean_items", "count"},
	{"serve.queue_wait_p50_ms", "ms"},
	{"serve.shed", "count"},
	{"serve.expired", "count"},
	{"router.spills", "count"},
	{"router.failovers", "count"},
	{"stream.offload_share", "share"},
	{"stream.dedup_share", "share"},
	{"stream.drop_share", "share"},
	{"stream.uplink_p50_ms", "ms"},
	{"gen.lateness_p99_ms", "ms"},
	{"tail.latency_p99_ms", "ms"},
	{"tail.percentile", "%"},
	{"trace_overhead.cpu_share", "share"},
}

// perLayerSpecs lists every per-layer metric a traced run prints.
func perLayerSpecs() []metricSpec {
	var out []metricSpec
	for _, c := range layerCases() {
		out = append(out,
			metricSpec{Name: c.name + ".ns_per_op", Unit: "ns", Better: "lower"},
			metricSpec{Name: c.name + ".allocs_per_op", Unit: "count", Better: "lower"})
	}
	for _, n := range spanNames {
		out = append(out,
			metricSpec{Name: "span." + n + ".self_ms", Unit: "ms", Better: "lower"},
			metricSpec{Name: "span." + n + ".count", Unit: "count", Better: "higher"})
	}
	for _, c := range countNames {
		better := "lower"
		if c.name == "serve.batch.mean_items" {
			better = "higher"
		}
		out = append(out, metricSpec{Name: c.name, Unit: c.unit, Better: better})
	}
	return out
}

// result is one run of one workload: the versioned schema every mode of
// the harness writes and compare reads.
type result struct {
	Schema   string  `json:"schema"`
	Host     host    `json:"host"`
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Traced   bool    `json:"traced"`
	// Valid is false when the noise guard tripped: the numbers are
	// kept for inspection but compare ignores the run.
	Valid   bool     `json:"valid"`
	Invalid []string `json:"invalid,omitempty"`
	// Correct is false when an output or conservation check failed.
	Correct  bool     `json:"correct"`
	Failures []string `json:"failures,omitempty"`
	// Ops are counted in the workload's unit over the measured window.
	OpsAttempted int      `json:"ops_attempted"`
	OpsOK        int      `json:"ops_ok"`
	OpsFailed    int      `json:"ops_failed"`
	OpErrors     []string `json:"op_errors,omitempty"`
	// LatencySamples is the population behind the latency percentiles.
	LatencySamples int                    `json:"latency_samples"`
	EndToEnd       map[string]metric      `json:"end_to_end,omitempty"`
	PerLayer       map[string]metric      `json:"per_layer,omitempty"`
	Counts         map[string]metric      `json:"counts,omitempty"`
	Spans          map[string]spanSummary `json:"spans,omitempty"`
	// Slices is the measured window cut up (the traced run's: its
	// reference pass).
	Slices []sliceMetrics `json:"slices,omitempty"`
}

// resultFile is a set of runs.
type resultFile struct {
	Schema string   `json:"schema"`
	Runs   []result `json:"runs"`
}

func findWorkload(name string) workload {
	for _, w := range workloads() {
		if w.name() == name {
			return w
		}
	}
	return nil
}

// warmFraction of the measured window is spent warming up first:
// connections are established, pools filled, the stream's queue built.
const warmFraction = 0.1

// Thresholds of the noise guard: a window whose halves differ by more
// than a tenth in throughput (judged only when each half holds enough
// ops for the ratio to mean something), or whose open-loop generator ran
// more than 5 ms late at p99, measured the host and not the program.
const (
	guardHalvesDiff = 0.10
	guardLatenessMs = 5.0
	guardMinHalfOps = 50
)

// setUp builds the workload's tier and pushes one verified op through
// it, returning how long that took.
func setUp(w workload, tr *tracer) (*tier, time.Duration, error) {
	start := time.Now()
	t, err := w.build(tr)
	if err != nil {
		return nil, 0, err
	}
	if err := w.first(t); err != nil {
		t.Close()
		return nil, 0, fmt.Errorf("first answer: %w", err)
	}
	return t, time.Since(start), nil
}

// sliceMetrics is one slice of the measured window as the result file
// keeps it: what the run's numbers were picked from.
type sliceMetrics struct {
	Seconds      float64 `json:"seconds"`
	Ops          int     `json:"ops"`
	OpsPerS      float64 `json:"ops_per_s"`
	CPUMsPerOp   float64 `json:"cpu_ms_per_op"`
	AllocKBPerOp float64 `json:"alloc_kb_per_op"`
	P50Ms        float64 `json:"latency_p50_ms"`
	P95Ms        float64 `json:"latency_p95_ms"`
}

func sliceTable(p *pass) []sliceMetrics {
	var out []sliceMetrics
	for _, s := range p.sliceStats() {
		if s.ops == 0 || len(s.lats) == 0 {
			continue
		}
		out = append(out, sliceMetrics{
			Seconds: s.seconds, Ops: s.ops, OpsPerS: float64(s.ops) / s.seconds,
			CPUMsPerOp: s.cpuMs / float64(s.ops), AllocKBPerOp: s.allocKB / float64(s.ops),
			P50Ms: percentile(s.lats, 0.50), P95Ms: percentile(s.lats, tailOf(len(s.lats))),
		})
	}
	return out
}

// passMetrics derives the window's end-to-end numbers. Each timing is
// that of the best slice. The shared host can only slow the program
// down, and does so in bursts of seconds to minutes (CPU time per op
// itself rises by up to half); the slice it disturbed least is the
// closest view of the program, and unlike the median slice it does not
// move with how much of the window the bursts covered. Allocation does
// not depend on the host and reports its median; slo_share is a count
// over every op attempted.
func passMetrics(p *pass) map[string]metric {
	table := sliceTable(p)
	if len(table) == 0 {
		table = []sliceMetrics{{}}
	}
	best := table[0]
	var alloc []float64
	for _, s := range table {
		best.OpsPerS = max(best.OpsPerS, s.OpsPerS)
		best.CPUMsPerOp = min(best.CPUMsPerOp, s.CPUMsPerOp)
		best.P50Ms = min(best.P50Ms, s.P50Ms)
		best.P95Ms = min(best.P95Ms, s.P95Ms)
		alloc = append(alloc, s.AllocKBPerOp)
	}
	return map[string]metric{
		"throughput_ops_per_s": {best.OpsPerS, "ops/s"},
		"latency_p50_ms":       {best.P50Ms, "ms"},
		"latency_p95_ms":       {best.P95Ms, "ms"},
		"slo_share":            {float64(p.withinSLO) / float64(max(p.attempted, 1)), "share"},
		"cpu_ms_per_op":        {best.CPUMsPerOp, "ms"},
		"alloc_kb_per_op":      {median(alloc), "KB"},
	}
}

// tailOf is the percentile latency_p95_ms reports for a slice of n
// samples: the 95th, or the highest one below it that the percentile
// rule still supports. A slice too small for any tail reports its
// median: the offline workloads, a few requests per run, claim no tail.
func tailOf(n int) float64 {
	return max(0.50, min(0.95, supportedTail(n)))
}

// guard applies the noise guard to a window.
func guard(p *pass) []string {
	var why []string
	if st := p.sliceStats(); len(st) >= 2 {
		half := func(ss []sliceStat) (ops int, rate float64) {
			sec := 0.0
			for _, s := range ss {
				ops, sec = ops+s.ops, sec+s.seconds
			}
			return ops, float64(ops) / sec
		}
		n0, r0 := half(st[:len(st)/2])
		n1, r1 := half(st[len(st)/2:])
		if d := (r1 - r0) / r0; n0 >= guardMinHalfOps && n1 >= guardMinHalfOps && (d > guardHalvesDiff || d < -guardHalvesDiff) {
			why = append(why, fmt.Sprintf("throughput drifted %.1f%% between the window's halves (%.1f → %.1f ops/s)", d*100, r0, r1))
		}
	}
	if late := percentile(p.latenessMs, 0.99); late > guardLatenessMs {
		why = append(why, fmt.Sprintf("the generator ran %.1f ms late at p99", late))
	}
	return why
}

func newResult(w workload, seed uint64, seconds float64, traced bool) *result {
	return &result{Schema: schemaVersion, Host: fingerprint(), Workload: w.name(), Seed: seed,
		Seconds: seconds, Traced: traced, Valid: true, Correct: true}
}

func (r *result) absorb(p *pass) {
	lats := p.latencies()
	r.OpsAttempted, r.OpsOK, r.OpsFailed = p.attempted, p.ok, p.attempted-p.ok
	r.OpErrors = p.errs
	r.LatencySamples = len(lats)
	r.Failures = append(r.Failures, p.wrong...)
	r.Invalid = append(r.Invalid, guard(p)...)
	r.Slices = sliceTable(p)
	r.Counts = map[string]metric{}
	for _, c := range countNames {
		if v, ok := p.counts[c.name]; ok {
			r.Counts[c.name] = metric{v, c.unit}
		}
	}
	if tail := supportedTail(len(lats)); tail > 0 {
		// Named p99 for its usual value; with fewer than 1000 samples it
		// is the highest percentile that still has ten samples beyond it.
		r.Counts["tail.latency_p99_ms"] = metric{percentile(lats, tail), "ms"}
		r.Counts["tail.percentile"] = metric{tail * 100, "%"}
	}
}

func (r *result) finish() {
	r.Correct = len(r.Failures) == 0
	r.Valid = len(r.Invalid) == 0
}

// runEndToEnd is the --trace 0 run: set-up, one warm-up and one measured
// window with nothing wrapped, then the set-up repeated for its median.
// The repeats come after the window, when the process has reached its
// working size: the first seconds of a process time the collector
// growing the heap as much as they time set-up.
func runEndToEnd(w workload, seed uint64, seconds float64) (*result, error) {
	r := newResult(w, seed, seconds, false)
	w.prepare(seed)
	t, took, err := setUp(w, nil)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	setups := []float64{took.Seconds()}
	dur := time.Duration(seconds * float64(time.Second))
	p, err := w.run(t, w.concurrency(), time.Duration(warmFraction*float64(dur)), dur, nil)
	if err == nil {
		r.absorb(p)
		r.Failures = append(r.Failures, w.verify(t)...)
	}
	t.Close()
	if err != nil {
		return nil, err
	}
	for i := 1; i < w.setups(); i++ {
		t, took, err := setUp(w, nil)
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		t.Close()
		setups = append(setups, took.Seconds())
	}
	r.EndToEnd = passMetrics(p)
	r.EndToEnd["setup_s"] = metric{median(setups), "s"}
	r.EndToEnd["peak_rss_mb"] = metric{peakRSSMB(), "MB"}
	r.finish()
	return r, nil
}

// Shares of --seconds the traced run gives to its three parts.
const (
	traceRefShare    = 0.3
	traceSpanShare   = 0.3
	traceLayersShare = 0.4
)

// runTraced is the --trace 1 run: a single-caller reference pass with
// nothing wrapped, the same pass again with a span around every layer
// boundary, then the isolated layer calls.
func runTraced(w workload, seed uint64, seconds float64, traceOut string) (*result, error) {
	r := newResult(w, seed, seconds, true)
	w.prepare(seed)
	onePass := func(tr *tracer, share float64) (*pass, error) {
		t, _, err := setUp(w, tr)
		if err != nil {
			return nil, err
		}
		defer t.Close()
		dur := time.Duration(share * seconds * float64(time.Second))
		p, err := w.run(t, 1, time.Duration(warmFraction*float64(dur)), dur, tr)
		if err != nil {
			return nil, err
		}
		p.wrong = append(p.wrong, w.verify(t)...)
		return p, nil
	}
	ref, err := onePass(nil, traceRefShare)
	if err != nil {
		return nil, fmt.Errorf("reference pass: %w", err)
	}
	r.absorb(ref)
	tr := &tracer{}
	traced, err := onePass(tr, traceSpanShare)
	if err != nil {
		return nil, fmt.Errorf("traced pass: %w", err)
	}
	// Ops of both passes count; the latency population and the boundary
	// counts stay the reference pass's.
	r.OpsAttempted, r.OpsOK = r.OpsAttempted+traced.attempted, r.OpsOK+traced.ok
	r.OpsFailed = r.OpsAttempted - r.OpsOK
	r.OpErrors = append(r.OpErrors, traced.errs...)
	r.Failures = append(r.Failures, traced.wrong...)
	r.Spans = summarizeSpans(tr.spans)
	if traceOut != "" {
		if err := writeTrace(traceOut, tr.spans); err != nil {
			return nil, err
		}
	}
	// The traced pass's own end-to-end numbers: what the spans must add
	// up to.
	r.EndToEnd = passMetrics(traced)
	if refCPU := passMetrics(ref)["cpu_ms_per_op"].Value; refCPU > 0 {
		r.Counts["trace_overhead.cpu_share"] = metric{r.EndToEnd["cpu_ms_per_op"].Value/refCPU - 1, "share"}
	}

	layers, err := runLayerCases(seed, time.Duration(traceLayersShare*seconds*float64(time.Second)))
	if err != nil {
		return nil, err
	}
	r.PerLayer = map[string]metric{}
	for _, l := range layers {
		r.PerLayer[l.Name+".ns_per_op"] = metric{l.NsPerOp, "ns"}
		r.PerLayer[l.Name+".allocs_per_op"] = metric{l.AllocsPerOp, "count"}
	}
	for _, n := range spanNames {
		s := r.Spans[n] // zero when the workload never crosses the boundary
		r.PerLayer["span."+n+".self_ms"] = metric{s.SelfMsP50, "ms"}
		r.PerLayer["span."+n+".count"] = metric{float64(s.Count), "count"}
	}
	for _, c := range countNames {
		r.PerLayer[c.name] = metric{r.Counts[c.name].Value, c.unit}
	}
	r.finish()
	return r, nil
}

func writeTrace(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeChrome(f, spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// appendResult adds the run to the result file at path, creating it.
func appendResult(path string, r *result) error {
	var rf resultFile
	if b, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(b, &rf); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		if rf.Schema != schemaVersion {
			return fmt.Errorf("%s holds schema %q, this harness writes %q", path, rf.Schema, schemaVersion)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	rf.Schema = schemaVersion
	rf.Runs = append(rf.Runs, *r)
	b, err := json.MarshalIndent(rf, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// contractLine is the object the driver reads from the last line of
// standard output.
type contractLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *result) contract() contractLine {
	c := contractLine{Correct: r.Correct, Attempted: max(r.OpsAttempted, 1), Failed: r.OpsFailed}
	if r.Traced {
		c.Metrics = r.PerLayer
	} else {
		c.Metrics = r.EndToEnd
	}
	return c
}

// print writes the run for a reader: every metric by name with its
// unit, then what failed.
func (r *result) print(w io.Writer) {
	mode := "end to end, tracing off"
	if r.Traced {
		mode = "traced run"
	}
	fmt.Fprintf(w, "== %s  (%s, seed %d, %g s)  ops attempted=%d ok=%d failed=%d  latency samples=%d\n",
		r.Workload, mode, r.Seed, r.Seconds, r.OpsAttempted, r.OpsOK, r.OpsFailed, r.LatencySamples)
	table := func(title string, m map[string]metric, order []string) {
		if len(m) == 0 {
			return
		}
		fmt.Fprintf(w, "-- %s\n", title)
		for _, k := range order {
			if v, ok := m[k]; ok {
				fmt.Fprintf(w, "  %-42s %14.6g %s\n", k, v.Value, v.Unit)
			}
		}
	}
	e2eTitle := "end-to-end metrics"
	if r.Traced {
		e2eTitle = "end-to-end metrics of the traced pass (one caller, spans on)"
	}
	table(e2eTitle, r.EndToEnd, endToEndNames)
	var counts []string
	for _, c := range countNames {
		counts = append(counts, c.name)
	}
	table("boundary counts", r.Counts, counts)
	if len(r.Spans) > 0 {
		fmt.Fprintf(w, "-- traced spans (median per span, ms)\n  %-26s %8s %12s %12s\n", "span", "count", "self", "total")
		sum := 0.0
		for _, n := range spanNames {
			if s, ok := r.Spans[n]; ok {
				fmt.Fprintf(w, "  %-26s %8d %12.4f %12.4f\n", n, s.Count, s.SelfMsP50, s.TotalMsP50)
				if n != spanIngestHandle {
					sum += s.SelfMsP50
				}
			}
		}
		fmt.Fprintf(w, "  %-26s %8s %12.4f   (latency_p50_ms of this pass: %.4f)\n", "sum of self times", "",
			sum, r.EndToEnd["latency_p50_ms"].Value)
	}
	if r.Traced && len(r.PerLayer) > 0 {
		fmt.Fprintf(w, "-- isolated layer calls\n  %-42s %14s %14s\n", "case", "ns/op", "allocs/op")
		for _, c := range layerCases() {
			fmt.Fprintf(w, "  %-42s %14.1f %14.2f\n", c.name,
				r.PerLayer[c.name+".ns_per_op"].Value, r.PerLayer[c.name+".allocs_per_op"].Value)
		}
	}
	for _, e := range r.OpErrors {
		fmt.Fprintf(w, "!! op failed: %s\n", e)
	}
	for _, f := range r.Failures {
		fmt.Fprintf(w, "!! check failed: %s\n", f)
	}
	for _, f := range r.Invalid {
		fmt.Fprintf(w, "!! run invalid: %s\n", f)
	}
}
