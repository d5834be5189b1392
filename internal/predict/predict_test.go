package predict

import (
	"math"
	"testing"
	"testing/quick"

	"harvest/internal/engine"
	"harvest/internal/hw"
	"harvest/internal/models"
)

func TestFitRecoversLinearLaw(t *testing.T) {
	// latency = 0.002 + 0.0001*b
	samples := []Sample{{Batch: 1, Seconds: 0.0021}, {Batch: 100, Seconds: 0.012}}
	p, err := Fit(samples)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p.Base-0.002) > 1e-9 || math.Abs(p.SecondsPerImage-0.0001) > 1e-12 {
		t.Errorf("fitted %+v", p)
	}
	if math.Abs(p.LatencySeconds(50)-0.007) > 1e-9 {
		t.Errorf("predicted latency %v", p.LatencySeconds(50))
	}
	// Saturated throughput is 1/SecondsPerImage = 10000 img/s, and the
	// knee (half of it) sits at b = Base/SecondsPerImage = 20.
	if thr := p.Throughput(20); math.Abs(thr-5000) > 1e-6 {
		t.Errorf("throughput at the knee %v, want 5000", thr)
	}
}

func TestFitLeastSquaresManyPoints(t *testing.T) {
	var samples []Sample
	for b := 1; b <= 64; b *= 2 {
		samples = append(samples, Sample{Batch: b, Seconds: 0.005 + 0.0002*float64(b)})
	}
	p, err := Fit(samples)
	if err != nil {
		t.Fatal(err)
	}
	rep := p.Validate(samples)
	if rep.MaxRelErr > 1e-9 {
		t.Errorf("exact linear data mispredicted: %+v", rep)
	}
}

func TestFitErrors(t *testing.T) {
	if _, err := Fit(nil); err == nil {
		t.Error("empty fit accepted")
	}
	if _, err := Fit([]Sample{{Batch: 1, Seconds: 1}}); err == nil {
		t.Error("single sample accepted")
	}
	if _, err := Fit([]Sample{{Batch: 2, Seconds: 1}, {Batch: 2, Seconds: 2}}); err == nil {
		t.Error("duplicate batch sizes accepted")
	}
	if _, err := Fit([]Sample{{Batch: 1, Seconds: 2}, {Batch: 10, Seconds: 1}}); err == nil {
		t.Error("negative slope accepted")
	}
	if _, err := Fit([]Sample{{Batch: 0, Seconds: 1}, {Batch: 2, Seconds: 2}}); err == nil {
		t.Error("zero batch accepted")
	}
}

func TestBatchSelectors(t *testing.T) {
	p := &Predictor{Base: 0.002, SecondsPerImage: 0.0001}
	candidates := []int{1, 2, 4, 8, 16, 32, 64, 128}
	// SLO 5 ms -> largest b with 0.002+0.0001b <= 0.005 is 30 -> 16.
	if b := p.BatchForLatency(0.005, candidates); b != 16 {
		t.Errorf("BatchForLatency = %d, want 16", b)
	}
	if b := p.BatchForLatency(0.0001, candidates); b != 0 {
		t.Errorf("impossible SLO gave %d", b)
	}
	// Throughput target 8000 img/s: b/(0.002+0.0001b) >= 8000 -> b >= 80 -> 128.
	if b := p.BatchForThroughput(8000, candidates); b != 128 {
		t.Errorf("BatchForThroughput = %d, want 128", b)
	}
	if b := p.BatchForThroughput(1e9, candidates); b != 0 {
		t.Errorf("impossible throughput gave %d", b)
	}
}

func TestTwoPointProfilePredictsCalibratedEngines(t *testing.T) {
	// The toolkit's core claim: profile two batches, predict the whole
	// sweep. The calibrated engines follow the linear law exactly, so
	// the prediction error must be negligible.
	for _, p := range hw.All() {
		for _, name := range models.Names() {
			eng, err := engine.New(p, name)
			if err != nil {
				t.Fatal(err)
			}
			second := 16
			if mb := eng.MaxBatch(0); mb < second {
				second = mb
			}
			var samples, truth []Sample
			for _, b := range []int{1, second} {
				st, err := eng.Infer(b)
				if err != nil {
					t.Fatal(err)
				}
				samples = append(samples, Sample{Batch: b, Seconds: st.Seconds})
			}
			for _, b := range hw.BatchSweep(p.Name) {
				st, err := eng.Infer(b)
				if err != nil {
					break
				}
				truth = append(truth, Sample{Batch: b, Seconds: st.Seconds})
			}
			pr, err := Fit(samples)
			if err != nil {
				t.Fatalf("%s/%s: %v", p.Name, name, err)
			}
			rep := pr.Validate(truth)
			if rep.MaxRelErr > 1e-6 {
				t.Errorf("%s/%s two-point prediction max err %.2e", p.Name, name, rep.MaxRelErr)
			}
		}
	}
}

func TestValidateSkipsInvalid(t *testing.T) {
	p := &Predictor{Base: 0.001, SecondsPerImage: 0.001}
	rep := p.Validate([]Sample{{Batch: 0, Seconds: 1}, {Batch: 1, Seconds: 0}})
	if rep.Points != 0 {
		t.Errorf("invalid truth counted: %+v", rep)
	}
}

func TestPlanOnline60QPS(t *testing.T) {
	opts, err := Plan(Requirements{
		SLOSeconds: hw.QPS60LatencyMs / 1000,
		Objective:  MaxThroughput,
	}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(opts) == 0 {
		t.Fatal("no options")
	}
	best := opts[0]
	if best.PredLatencySeconds > hw.QPS60LatencyMs/1000+1e-9 {
		t.Errorf("best option violates SLO: %+v", best)
	}
	// Throughput ordering.
	for i := 1; i < len(opts); i++ {
		if opts[i].PredImgPerSec > opts[i-1].PredImgPerSec+1e-9 {
			t.Errorf("options not sorted by throughput at %d", i)
		}
	}
}

func TestPlanMinLatencyPicksSmallBatch(t *testing.T) {
	opts, err := Plan(Requirements{Objective: MinLatency}, []*hw.Platform{hw.A100()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if opts[0].Batch != 1 {
		t.Errorf("min-latency plan picked batch %d", opts[0].Batch)
	}
}

func TestPlanEnergyObjective(t *testing.T) {
	opts, err := Plan(Requirements{
		SLOSeconds: 0.5,
		Objective:  MaxImagesPerJoule,
		Pipeline:   true,
	}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(opts); i++ {
		if opts[i].ImagesPerJoule > opts[i-1].ImagesPerJoule+1e-9 {
			t.Errorf("options not sorted by img/J at %d", i)
		}
	}
}

func TestPlanInfeasible(t *testing.T) {
	if _, err := Plan(Requirements{MinImgPerSec: 1e12}, nil, nil); err == nil {
		t.Error("impossible requirement produced a plan")
	}
}

func TestPlanJetsonOnlyRespectsMemory(t *testing.T) {
	opts, err := Plan(Requirements{Objective: MaxThroughput, Pipeline: true},
		[]*hw.Platform{hw.Jetson()}, []string{models.NameViTBase})
	if err != nil {
		t.Fatal(err)
	}
	if opts[0].Batch > 2 {
		t.Errorf("Jetson ViT_Base pipeline plan batch %d exceeds OOM boundary 2", opts[0].Batch)
	}
}

func TestObjectiveString(t *testing.T) {
	if MaxThroughput.String() != "max-throughput" ||
		MinLatency.String() != "min-latency" ||
		MaxImagesPerJoule.String() != "max-images-per-joule" {
		t.Error("objective names wrong")
	}
	if Objective(9).String() == "" {
		t.Error("unknown objective empty")
	}
}

func TestLatencyQuickMonotone(t *testing.T) {
	p := &Predictor{Base: 0.003, SecondsPerImage: 0.0002}
	f := func(a, b uint8) bool {
		x, y := int(a)+1, int(b)+1
		if x > y {
			x, y = y, x
		}
		return p.LatencySeconds(x) <= p.LatencySeconds(y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
