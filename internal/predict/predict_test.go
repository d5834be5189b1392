package predict

import (
	"math"
	"testing"
	"testing/quick"

	"harvest/internal/engine"
	"harvest/internal/hw"
	"harvest/internal/models"
)

// lawSweep is a feasible sweep whose batches follow the latency law
// base + b*perImage.
func lawSweep(base, perImage float64, batches ...int) []engine.InferStats {
	var sts []engine.InferStats
	for _, b := range batches {
		sec := base + float64(b)*perImage
		sts = append(sts, engine.InferStats{Batch: b, Seconds: sec, ImgPerSec: float64(b) / sec})
	}
	return sts
}

func TestBatchSelectors(t *testing.T) {
	feasible := lawSweep(0.002, 0.0001, 1, 2, 4, 8, 16, 32, 64, 128)
	// SLO 5 ms -> largest b with 0.002+0.0001b <= 0.005 is 30 -> 16.
	if st := chooseBatch(Requirements{SLOSeconds: 0.005}, feasible); st.Batch != 16 {
		t.Errorf("SLO choice = %d, want 16", st.Batch)
	}
	if st := chooseBatch(Requirements{SLOSeconds: 0.0001}, feasible); st.Batch != 0 {
		t.Errorf("impossible SLO gave %d", st.Batch)
	}
	// Throughput target 8000 img/s: b/(0.002+0.0001b) >= 8000 -> b >= 80 -> 128.
	if st := chooseBatch(Requirements{MinImgPerSec: 8000, Objective: MinLatency}, feasible); st.Batch != 128 {
		t.Errorf("throughput choice = %d, want 128", st.Batch)
	}
	if st := chooseBatch(Requirements{MinImgPerSec: 1e9, Objective: MinLatency}, feasible); st.Batch != 0 {
		t.Errorf("impossible throughput gave %d", st.Batch)
	}
}

func TestTwoPointProfilePredictsCalibratedEngines(t *testing.T) {
	// The toolkit's core claim: profile two batches, predict the whole
	// sweep. The line through an engine's latency at two batches must
	// give its latency at every feasible batch, and so the latency of
	// the batch Plan picks for it.
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
			lo, err := eng.Infer(1)
			if err != nil {
				t.Fatal(err)
			}
			hi, err := eng.Infer(second)
			if err != nil {
				t.Fatal(err)
			}
			perImage := (hi.Seconds - lo.Seconds) / float64(second-1)
			line := func(b int) float64 { return lo.Seconds + float64(b-1)*perImage }
			maxErr := 0.0
			for _, b := range hw.BatchSweep(p.Name) {
				st, err := eng.Infer(b)
				if err != nil {
					break
				}
				maxErr = math.Max(maxErr, math.Abs(line(b)-st.Seconds)/st.Seconds)
			}
			opts, err := Plan(Requirements{}, []*hw.Platform{p}, []string{name})
			if err != nil {
				t.Fatalf("%s/%s: %v", p.Name, name, err)
			}
			maxErr = math.Max(maxErr, math.Abs(line(opts[0].Batch)-opts[0].PredLatencySeconds)/opts[0].PredLatencySeconds)
			if maxErr > 1e-6 {
				t.Errorf("%s/%s two-point prediction max err %.2e", p.Name, name, maxErr)
			}
		}
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
	// A looser latency SLO never picks a smaller batch.
	feasible := lawSweep(0.003, 0.0002, 1, 2, 4, 8, 16, 32, 64, 128, 256)
	f := func(a, b uint8) bool {
		x, y := float64(a)+1, float64(b)+1
		if x > y {
			x, y = y, x
		}
		tight := chooseBatch(Requirements{SLOSeconds: x / 1000}, feasible)
		loose := chooseBatch(Requirements{SLOSeconds: y / 1000}, feasible)
		return tight.Batch <= loose.Batch
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
