package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"slices"
	"testing"
	"time"
)

func TestSupportedTail(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 0.50}, {99, 0.50}, {100, 0.90}, {199, 0.90}, {200, 0.95},
		{999, 0.95}, {1000, 0.99}, {9999, 0.99}, {10000, 0.999},
	} {
		if got := supportedTail(c.n); got != c.want {
			t.Errorf("supportedTail(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{0.5, 5}, {0.9, 9}, {0.95, 10}, {0.01, 1}, {1, 10}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%g) = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %g, want 0", got)
	}
}

// at builds a span from millisecond offsets.
func at(name, id, tier string, fromMs, toMs int) span {
	base := time.Unix(1000, 0)
	return span{name: name, id: id, tier: tier, parent: -1,
		start: base.Add(time.Duration(fromMs) * time.Millisecond),
		end:   base.Add(time.Duration(toMs) * time.Millisecond)}
}

func TestSelfTimeNested(t *testing.T) {
	spans := []span{
		at(spanClientInfer, "r1", "", 0, 100),
		at(spanRouterHandle, "r1", "router", 10, 90),
		at(spanReplicaHandle, "r1", "replica0", 20, 80),
		at(spanPreprocess, "", "replica0", 30, 40),    // attaches by containment
		at(spanEngineForward, "", "replica0", 50, 75), // second child of the same parent
		at(spanPreprocess, "", "replica1", 30, 40),    // other tier: no parent
	}
	resolveParents(spans)
	wantParent := []int{-1, 0, 1, 2, 2, -1}
	for i, s := range spans {
		if s.parent != wantParent[i] {
			t.Errorf("span %d (%s) parent = %d, want %d", i, s.name, s.parent, wantParent[i])
		}
	}
	want := []int{20, 20, 25, 10, 25, 10}
	for i, d := range selfTimes(spans) {
		if d != time.Duration(want[i])*time.Millisecond {
			t.Errorf("span %d (%s) self = %v, want %d ms", i, spans[i].name, d, want[i])
		}
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	// Children that overlap each other and stick out of the parent are
	// counted once, and only inside the parent: [10,40]∪[30,60]∪[90,120]
	// covers 60 of [0,100].
	spans := []span{
		at(spanClientFrame, "cam-0-1", "", 0, 100),
		at(spanBackendSubmit, "cam-0-1", "edge", 10, 40),
		at(spanCloudTrip, "cam-0-1", "", 30, 60),
		at(spanCloudTrip, "cam-0-1x", "", 0, 0), // unrelated id: a root
	}
	spans = append(spans, at(spanBackendSubmit, "cam-0-1", "edge", 90, 120))
	resolveParents(spans)
	// Two spans share a name and id; both must hang off the frame.
	for _, i := range []int{1, 2, 4} {
		if spans[i].parent != 0 {
			t.Fatalf("span %d parent = %d, want 0", i, spans[i].parent)
		}
	}
	if got := selfTimes(spans)[0]; got != 40*time.Millisecond {
		t.Errorf("self = %v, want 40ms", got)
	}
}

func TestBatchSpanPicksLatestContainer(t *testing.T) {
	// Two frames in flight on the edge: the preprocess call belongs to
	// the submit that started last before it.
	spans := []span{
		at(spanBackendSubmit, "cam-0-1", "edge", 0, 100),
		at(spanBackendSubmit, "cam-0-2", "edge", 10, 110),
		at(spanPreprocess, "", "edge", 1, 5),
		at(spanPreprocess, "", "edge", 11, 15),
	}
	resolveParents(spans)
	if spans[2].parent != 0 || spans[3].parent != 1 {
		t.Errorf("parents = %d, %d, want 0, 1", spans[2].parent, spans[3].parent)
	}
}

func TestTracerDropsSpansFromBeforeTheWindow(t *testing.T) {
	tr := &tracer{}
	early := time.Now()
	tr.add("a", "", "", early, early)
	tr.reset()
	tr.add("a2", "", "", early, early)     // ended in the warm-up, recorded late
	tr.add("b", "", "", early, time.Now()) // began in the warm-up, ended in the window
	tr.add("c", "", "", time.Now(), time.Now())
	if len(tr.spans) != 2 || tr.spans[0].name != "b" || tr.spans[1].name != "c" {
		t.Errorf("kept %+v, want b and c", tr.spans)
	}
	var none *tracer
	none.add("x", "", "", early, early) // a nil tracer records nothing and does not panic
	none.reset()
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %g %g %g, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	q1, q2, q3 = quartiles([]float64{1, 2, 4})
	if q1 != 1 || q2 != 2 || q3 != 4 {
		t.Errorf("quartiles = %g %g %g, want 1 2 4", q1, q2, q3)
	}
	if q1, q2, q3 = quartiles([]float64{7}); q1 != 7 || q2 != 7 || q3 != 7 {
		t.Errorf("one value is its own quartiles, got %g %g %g", q1, q2, q3)
	}
}

func TestJudge(t *testing.T) {
	tight := func(c float64) []float64 { return []float64{c * 0.999, c, c * 1.001} }
	wide := func(c float64) []float64 { return []float64{c * 0.8, c, c * 1.2} }
	for _, c := range []struct {
		name     string
		old, new []float64
		better   string
		bound    float64
		want     string
	}{
		{"equal", tight(100), tight(100), "lower", 0.05, verdictUnchanged},
		{"worse inside the bound", tight(100), tight(104.9), "lower", 0.05, verdictUnchanged},
		{"worse at the bound", tight(100), []float64{105, 105, 105}, "lower", 0.05, verdictUnchanged},
		{"worse past the bound", tight(100), tight(105.2), "lower", 0.05, verdictRegressed},
		{"better past the bound", tight(100), tight(94), "lower", 0.05, verdictImproved},
		{"higher is better: drop past the bound", tight(100), tight(94), "higher", 0.05, verdictRegressed},
		{"higher is better: rise past the bound", tight(100), tight(106), "higher", 0.05, verdictImproved},
		{"spread wider than the bound, sets overlap", wide(100), wide(110), "lower", 0.05, verdictUnresolved},
		{"spread wider than the bound, every new run worse", wide(100), wide(200), "lower", 0.05, verdictRegressed},
		{"spread wider than the bound, every new run better", wide(200), wide(100), "lower", 0.05, verdictImproved},
		{"single runs", []float64{100}, []float64{101}, "lower", 0.05, verdictUnchanged},
		{"both zero", []float64{0, 0}, []float64{0, 0}, "lower", 0.05, verdictUnchanged},
	} {
		if _, got := judge(c.old, c.new, c.better, c.bound); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareFlagsFailureShare(t *testing.T) {
	spec := &benchmarkSpec{EndToEnd: []metricSpec{{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.07}}}
	spec.Workloads = append(spec.Workloads, struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}{Name: "online_rpc"})
	run := func(failed int) result {
		return result{Workload: "online_rpc", OpsAttempted: 1000, OpsFailed: failed,
			EndToEnd: map[string]metric{"latency_p50_ms": {1, "ms"}}}
	}
	rows, more := compareRuns(spec, []result{run(0), run(0)}, []result{run(0), run(3)})
	if len(rows) != 1 || rows[0].verdict != verdictUnchanged {
		t.Errorf("rows = %+v, want one unchanged row", rows)
	}
	if len(more) != 1 {
		t.Errorf("failure share rose but compare did not say so: %v", more)
	}
	if _, more = compareRuns(spec, []result{run(3)}, []result{run(3)}); len(more) != 0 {
		t.Errorf("equal failure share flagged: %v", more)
	}
}

func TestSchedulePacesFromIntendedTimes(t *testing.T) {
	s := newFrameSchedule(1, 2, 75)
	if s.period != time.Second/75 || s.phase != s.period/2 {
		t.Errorf("second of two cameras at 75 FPS: %+v, want period %v and half a period of phase", s, time.Second/75)
	}
	if first := newFrameSchedule(0, 2, 75); first.phase != 0 {
		t.Errorf("first camera starts at %v, want 0", first.phase)
	}
	// Frame i is due at phase + i×period whatever happened to frame i−1:
	// the schedule has no memory of send times.
	for _, i := range []int{0, 1, 74, 75, 1349} {
		if got, want := s.due(i), s.phase+time.Duration(i)*s.period; got != want {
			t.Errorf("due(%d) = %v, want %v", i, got, want)
		}
	}
}

func TestSeedDrivesEveryInput(t *testing.T) {
	bodies := func(seed uint64) []byte {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		frames := framePool(seed, 0, 2, 64, 16)
		job := newTensorJob(seed, 3, 2, 8)
		for w := 0; w < 2; w++ {
			for i := 0; i < 3; i++ {
				for _, b := range []any{rpcBody(seed, w, i), frameBody(seed, frames, w, i), job.body(i)} {
					if err := enc.Encode(b); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		return buf.Bytes()
	}
	a, again, b := bodies(1), bodies(1), bodies(2)
	if !bytes.Equal(a, again) {
		t.Error("the same seed produced different request bodies")
	}
	if bytes.Equal(a, b) {
		t.Error("different seeds produced the same request bodies")
	}
}

func TestFrameIsAValidPPM(t *testing.T) {
	f := ppmFrame(newRand(1, streamFrames), 512, 16)
	if want := 15 + 512*512*3; len(f) != want {
		t.Errorf("512×512 frame is %d bytes, want %d (15-byte header + RGB)", len(f), want)
	}
	if !bytes.HasPrefix(f, []byte("P6\n512 512\n255\n")) {
		t.Errorf("header = %q", f[:15])
	}
}

func TestBestSliceIgnoresDisturbedSlices(t *testing.T) {
	// Three one-second slices, 100 ops each; the middle one burns three
	// times the CPU and runs at ten times the latency.
	p := &pass{units: 1}
	for k := 0; k <= 3; k++ {
		cpu := time.Duration(k) * 100 * time.Millisecond
		if k >= 2 {
			cpu += 200 * time.Millisecond
		}
		p.marks = append(p.marks, mark{at: time.Duration(k) * time.Second, u: usage{cpu: cpu, alloc: uint64(k) * 1024 * 100}})
	}
	for k := 0; k < 3; k++ {
		for i := 0; i < 100; i++ {
			lat := 1.0
			if k == 1 {
				lat = 10
			}
			p.samples = append(p.samples, opSample{done: time.Duration(k)*time.Second + time.Duration(i)*time.Millisecond + time.Microsecond, latMs: lat, timed: true})
		}
	}
	p.attempted, p.ok, p.withinSLO = 300, 300, 300
	st := p.sliceStats()
	if len(st) != 3 || st[0].ops != 100 || st[1].ops != 100 || st[2].ops != 100 {
		t.Fatalf("slices = %+v", st)
	}
	m := passMetrics(p)
	for name, want := range map[string]float64{
		"throughput_ops_per_s": 100, "latency_p50_ms": 1, "latency_p95_ms": 1,
		"cpu_ms_per_op": 1, "alloc_kb_per_op": 1, "slo_share": 1,
	} {
		if got := m[name].Value; math.Abs(got-want) > 1e-9 {
			t.Errorf("%s = %g, want %g", name, got, want)
		}
	}
	// An op that completes after the nominal end belongs to the last slice.
	p.samples = append(p.samples, opSample{done: 5 * time.Second, latMs: 1, timed: true})
	if st = p.sliceStats(); st[2].ops != 101 {
		t.Errorf("late op landed in %+v", st)
	}
}

func TestGuard(t *testing.T) {
	mk := func(first, second int) *pass {
		p := &pass{units: 1,
			marks: []mark{{at: 0}, {at: time.Second}, {at: 2 * time.Second}}}
		for i := 0; i < first; i++ {
			p.samples = append(p.samples, opSample{done: time.Millisecond})
		}
		for i := 0; i < second; i++ {
			p.samples = append(p.samples, opSample{done: time.Second + time.Millisecond})
		}
		return p
	}
	if why := guard(mk(1000, 1090)); len(why) != 0 {
		t.Errorf("9%% drift tripped the guard: %v", why)
	}
	if why := guard(mk(1000, 1110)); len(why) != 1 {
		t.Errorf("11%% drift did not trip the guard: %v", why)
	}
	if why := guard(mk(10, 20)); len(why) != 0 {
		t.Errorf("too few ops to judge, yet: %v", why)
	}
	late := mk(1000, 1000)
	late.latenessMs = []float64{0.1, 0.2, 6}
	if why := guard(late); len(why) != 1 {
		t.Errorf("a generator 6 ms late did not trip the guard: %v", why)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json equal to what the harness
// prints, and inside the limits its format sets.
func TestBenchmarkJSON(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	var got []string
	for _, w := range spec.Workloads {
		got = append(got, w.Name)
		if len(w.Why) > 200 || !name.MatchString(w.Name) {
			t.Errorf("workload %q: bad name or a why of %d characters", w.Name, len(w.Why))
		}
	}
	var want []string
	for _, w := range workloads() {
		want = append(want, w.name())
	}
	if !slices.Equal(got, want) {
		t.Errorf("workloads = %v, harness runs %v", got, want)
	}
	got = got[:0]
	sawSetup := false
	for _, m := range spec.EndToEnd {
		got = append(got, m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 || !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("end-to-end metric %+v is outside the format's limits", m)
		}
		sawSetup = sawSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !slices.Equal(got, endToEndNames) || !sawSetup {
		t.Errorf("end_to_end = %v, harness prints %v", got, endToEndNames)
	}
	layers := perLayerSpecs()
	if len(layers) > 128 {
		t.Errorf("%d per-layer metrics, the format allows 128", len(layers))
	}
	if len(spec.PerLayer) != len(layers) {
		t.Fatalf("per_layer lists %d metrics, harness prints %d", len(spec.PerLayer), len(layers))
	}
	for i, m := range spec.PerLayer {
		if m != layers[i] {
			t.Errorf("per_layer[%d] = %+v, harness prints %+v", i, m, layers[i])
		}
		if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) {
			t.Errorf("per-layer metric %+v is outside the format's limits", m)
		}
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 || len(spec.Paths) != 1 || spec.Paths[0] != "benchmark" {
		t.Errorf("run_seconds %d, paths %v", spec.RunSeconds, spec.Paths)
	}
	if b, err := os.ReadFile("../BENCHMARK.json"); err != nil || len(b) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes (limit 64 KiB), err %v", len(b), err)
	}
}
