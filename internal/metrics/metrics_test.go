package metrics

import (
	"math"
	"strings"
	"sync"
	"testing"

	"harvest/internal/engine"
	"harvest/internal/hw"
	"harvest/internal/models"
)

func TestLatencyRecorder(t *testing.T) {
	var r LatencyRecorder
	for _, v := range []float64{0.010, 0.020, 0.030} {
		r.Observe(v)
	}
	if r.Count() != 3 {
		t.Fatalf("count %d", r.Count())
	}
	s := r.Snapshot().Summary()
	if m := s.Mean * 1000; math.Abs(m-20) > 1e-9 {
		t.Errorf("mean %v ms, want 20", m)
	}
	// Percentiles are interpolated from log buckets: exact to within
	// one bucket width ratio (10^(1/8) ≈ 1.33).
	if p := r.Snapshot().Quantile(50) * 1000; p < 20/1.34 || p > 20*1.34 {
		t.Errorf("p50 %v ms, want ~20 within one bucket width", p)
	}
	if s.N != 3 || s.Min != 0.010 || s.Max != 0.030 {
		t.Errorf("summary %+v", s)
	}
}

func TestLatencyRecorderConcurrent(t *testing.T) {
	var r LatencyRecorder
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				r.Observe(0.001)
			}
		}()
	}
	wg.Wait()
	if r.Count() != 3200 {
		t.Errorf("count %d, want 3200", r.Count())
	}
}

// eachFeasibleBatch calls f with every calibrated engine's stats at
// every swept batch that fits: the rows the harness's img/s and MFU
// columns are printed from.
func eachFeasibleBatch(t *testing.T, f func(eng *engine.Engine, st engine.InferStats)) {
	t.Helper()
	for _, p := range hw.All() {
		for _, name := range models.Names() {
			eng, err := engine.New(p, name)
			if err != nil {
				t.Fatal(err)
			}
			for _, b := range hw.BatchSweep(p.Name) {
				st, err := eng.Infer(b)
				if err != nil {
					break
				}
				f(eng, st)
			}
		}
	}
}

func TestThroughput(t *testing.T) {
	// Throughput is items over seconds: a batch of b images in s
	// seconds is b/s img/s.
	eachFeasibleBatch(t, func(eng *engine.Engine, st engine.InferStats) {
		want := float64(st.Batch) / st.Seconds
		if st.Seconds <= 0 || math.Abs(st.ImgPerSec-want) > 1e-12*want {
			t.Errorf("%s/%s batch %d: %v img/s in %v s, want %v",
				eng.Platform.Name, eng.Entry.Spec.Name, st.Batch, st.ImgPerSec, st.Seconds, want)
		}
	})
}

func TestMFU(t *testing.T) {
	// MFU is achieved FLOPS (img/s times FLOPs per image) over the
	// platform's practical FLOPS.
	eachFeasibleBatch(t, func(eng *engine.Engine, st engine.InferStats) {
		peak := eng.Platform.PracticalTFLOPS * 1e12
		want := st.ImgPerSec * eng.Perf.FLOPsPerImage / peak
		if math.Abs(st.MFU-want) > 1e-12*want || math.Abs(st.TFLOPS*1e12/peak-want) > 1e-12*want {
			t.Errorf("%s/%s batch %d: MFU %v at %v TFLOPS, achieved/practical gives %v",
				eng.Platform.Name, eng.Entry.Spec.Name, st.Batch, st.MFU, st.TFLOPS, want)
		}
	})
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("My Title", "Name", "Value")
	tb.AddRow("alpha", 3.14159)
	tb.AddRow("beta", "raw")
	tb.AddRow("gamma", 42)
	if tb.NumRows() != 3 {
		t.Fatalf("rows %d", tb.NumRows())
	}
	out := tb.String()
	for _, want := range []string{"My Title", "Name", "Value", "alpha", "3.14", "raw", "42"} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q:\n%s", want, out)
		}
	}
	csv := tb.CSV()
	if !strings.HasPrefix(csv, "Name,Value\n") {
		t.Errorf("csv header wrong: %q", csv)
	}
	if !strings.Contains(csv, "alpha,3.14") {
		t.Errorf("csv rows wrong: %q", csv)
	}
}

func TestSeries(t *testing.T) {
	var s Series
	s.Add(1, 10)
	s.Add(2, 30)
	s.Add(3, 20)
	if y, ok := s.YAt(2); !ok || y != 30 {
		t.Errorf("YAt(2) = %v, %v", y, ok)
	}
	if _, ok := s.YAt(9); ok {
		t.Error("YAt of absent x succeeded")
	}
}

func TestFigureRendering(t *testing.T) {
	f := NewFigure("Scaling", "batch", "tflops")
	a := f.AddSeries("ViT")
	a.Add(1, 1.5)
	a.Add(2, 2.5)
	b := f.AddSeries("ResNet")
	b.Add(2, 4.5)
	out := f.String()
	for _, want := range []string{"Scaling", "batch", "ViT", "ResNet", "1.50", "4.50"} {
		if !strings.Contains(out, want) {
			t.Errorf("figure output missing %q:\n%s", want, out)
		}
	}
	// Missing points render as "-".
	if !strings.Contains(out, "-") {
		t.Error("missing point placeholder absent")
	}
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
			c.Add(5)
		}()
	}
	wg.Wait()
	if got := c.Load(); got != 8*1000+8*5 {
		t.Errorf("counter %d, want %d", got, 8*1000+8*5)
	}
}
