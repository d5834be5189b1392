package hw

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPlatformTable1Anchors(t *testing.T) {
	cases := []struct {
		p         *Platform
		theory    float64
		practical float64
		cores     int
		memGB     int64
		precision Precision
	}{
		{V100(), 112, 92.6, 40, 16, FP16},
		{A100(), 312, 236.3, 128, 40, BF16},
		{Jetson(), 17, 11.4, 6, 8, FP16},
	}
	for _, c := range cases {
		if c.p.TheoreticalTFLOPS != c.theory {
			t.Errorf("%s theory %v, want %v", c.p.Name, c.p.TheoreticalTFLOPS, c.theory)
		}
		if c.p.PracticalTFLOPS != c.practical {
			t.Errorf("%s practical %v, want %v", c.p.Name, c.p.PracticalTFLOPS, c.practical)
		}
		if c.p.CPUCores != c.cores {
			t.Errorf("%s cores %d, want %d", c.p.Name, c.p.CPUCores, c.cores)
		}
		if c.p.GPUMemBytes != c.memGB<<30 {
			t.Errorf("%s mem %d, want %d GB", c.p.Name, c.p.GPUMemBytes, c.memGB)
		}
		if c.p.Precision != c.precision {
			t.Errorf("%s precision %s", c.p.Name, c.p.Precision)
		}
	}
}

func TestCloudEfficiencyRange(t *testing.T) {
	// Paper: FLOPS efficiency ranges 75.74% to 82.68% on the cloud
	// platforms.
	if e := A100().FLOPSEfficiency(); math.Abs(e-0.7574) > 0.001 {
		t.Errorf("A100 efficiency %.4f, want 0.7574", e)
	}
	if e := V100().FLOPSEfficiency(); math.Abs(e-0.8268) > 0.001 {
		t.Errorf("V100 efficiency %.4f, want 0.8268", e)
	}
}

func TestByNameAndOrders(t *testing.T) {
	for _, name := range []string{KeyA100, KeyV100, KeyJetson} {
		p, err := ByName(name)
		if err != nil || p.Name != name {
			t.Errorf("ByName(%s): %v, %v", name, p, err)
		}
	}
	if _, err := ByName("H100"); err == nil {
		t.Error("unknown platform accepted")
	}
	if len(All()) != 3 || len(FigureOrder()) != 3 {
		t.Error("platform list sizes wrong")
	}
	if FigureOrder()[0].Name != KeyA100 {
		t.Error("figure order should start with A100")
	}
}

func TestJetsonUnifiedMemory(t *testing.T) {
	j := Jetson()
	if !j.Unified {
		t.Error("Jetson should have unified memory")
	}
	if j.PCIeBytesPerSecond != 0 {
		t.Error("Jetson should have no PCIe copy cost")
	}
	if j.PowerW != 25 {
		t.Errorf("Jetson power %v, want 25W mode", j.PowerW)
	}
}

func TestMemoryBudgets(t *testing.T) {
	for _, p := range All() {
		if p.EngineMemBytes() <= 0 || p.PipelineMemBytes() <= 0 {
			t.Errorf("%s non-positive memory budget", p.Name)
		}
		if p.PipelineMemBytes() >= p.EngineMemBytes() {
			t.Errorf("%s pipeline budget not smaller than engine budget", p.Name)
		}
	}
}

func TestCalibrationLookup(t *testing.T) {
	for _, p := range All() {
		for _, m := range []string{"ViT_Tiny", "ViT_Small", "ViT_Base", "ResNet50"} {
			c, err := Calibration(p.Name, m)
			if err != nil {
				t.Fatalf("%s/%s: %v", p.Name, m, err)
			}
			if c.AnchorImgPerSec <= 0 || c.BHalf <= 0 || c.EngineBytesPerImage <= 0 {
				t.Errorf("%s/%s degenerate calibration %+v", p.Name, m, c)
			}
			if c.PipelineBytesPerImage < c.EngineBytesPerImage {
				t.Errorf("%s/%s pipeline working set smaller than engine's", p.Name, m)
			}
		}
	}
	if _, err := Calibration("A100", "AlexNet"); err == nil {
		t.Error("unknown calibration accepted")
	}
}

func newPM(t *testing.T, p *Platform, model string) *PerfModel {
	t.Helper()
	flops := map[string]float64{
		"ViT_Tiny": 1.365e9, "ViT_Small": 5.459e9, "ViT_Base": 16.849e9, "ResNet50": 4.089e9,
	}[model]
	pm, err := NewPerfModel(p, model, flops, 50<<20)
	if err != nil {
		t.Fatal(err)
	}
	return pm
}

func TestPerfModelAnchorReproduction(t *testing.T) {
	pm := newPM(t, A100(), "ViT_Tiny")
	got := pm.ThroughputImgPerSec(1024)
	if math.Abs(got-22879.3) > 1 {
		t.Errorf("A100 ViT_Tiny @1024 = %.1f, want 22879.3", got)
	}
}

func TestMFUMonotoneAndBounded(t *testing.T) {
	for _, p := range All() {
		for _, m := range []string{"ViT_Tiny", "ViT_Small", "ViT_Base", "ResNet50"} {
			pm := newPM(t, p, m)
			prev := 0.0
			for _, b := range BatchSweep(p.Name) {
				u := pm.MFU(b)
				if u <= prev {
					t.Errorf("%s/%s MFU not strictly increasing at %d", p.Name, m, b)
				}
				if u > pm.mfuMax || u > 1 {
					t.Errorf("%s/%s MFU %v exceeds max %v", p.Name, m, u, pm.mfuMax)
				}
				prev = u
			}
			if pm.MFU(0) != 0 {
				t.Errorf("MFU(0) = %v", pm.MFU(0))
			}
		}
	}
}

func TestLatencyShape(t *testing.T) {
	// Latency must be strictly increasing in batch and have the
	// flat-then-linear shape: per-image latency decreases with batch.
	pm := newPM(t, V100(), "ViT_Base")
	prevLat := 0.0
	prevPerImage := math.Inf(1)
	for _, b := range CloudBatchSweep {
		lat := pm.LatencySeconds(b)
		if lat <= prevLat {
			t.Fatalf("latency not increasing at batch %d", b)
		}
		per := lat / float64(b)
		if per >= prevPerImage {
			t.Fatalf("per-image latency not decreasing at batch %d", b)
		}
		prevLat, prevPerImage = lat, per
	}
	// The one batch-latency law, for every calibrated pair and swept
	// batch: latency(b) = (b+BHalf)/SaturatedThroughput, the affine
	// base + b*secondsPerImage; and MFU is the achieved rate over the
	// platform's practical rate.
	for _, p := range All() {
		for _, m := range []string{"ViT_Tiny", "ViT_Small", "ViT_Base", "ResNet50"} {
			pm := newPM(t, p, m)
			for _, b := range BatchSweep(p.Name) {
				want := (float64(b) + pm.Calib.BHalf) / pm.SaturatedThroughput()
				if got := pm.LatencySeconds(b); math.Abs(got-want) > 1e-12*want {
					t.Errorf("%s/%s latency(%d) = %v, law gives %v", p.Name, m, b, got, want)
				}
				mfu := pm.ThroughputImgPerSec(b) * pm.FLOPsPerImage / (p.PracticalTFLOPS * 1e12)
				if got := pm.MFU(b); math.Abs(got-mfu) > 1e-12*mfu {
					t.Errorf("%s/%s MFU(%d) = %v, achieved/practical gives %v", p.Name, m, b, got, mfu)
				}
			}
		}
	}
}

func TestTheoreticalLatencyIsLowerBound(t *testing.T) {
	pm := newPM(t, A100(), "ResNet50")
	for _, b := range CloudBatchSweep {
		if pm.TheoreticalLatencySeconds(b) >= pm.LatencySeconds(b) {
			t.Errorf("ideal latency not below actual at batch %d", b)
		}
	}
}

func TestAchievedTFLOPSBelowPractical(t *testing.T) {
	for _, p := range All() {
		for _, m := range []string{"ViT_Tiny", "ViT_Base"} {
			pm := newPM(t, p, m)
			for _, b := range BatchSweep(p.Name) {
				if tf := pm.AchievedTFLOPS(b); tf >= p.PracticalTFLOPS {
					t.Errorf("%s/%s achieved %v >= practical %v", p.Name, m, tf, p.PracticalTFLOPS)
				}
			}
		}
	}
}

func TestMaxBatchRespectsCapAndMemory(t *testing.T) {
	pm := newPM(t, Jetson(), "ViT_Base")
	if got := pm.MaxBatch(JetsonBatchSweep, false, 0); got != 8 {
		t.Errorf("Jetson ViT_Base engine max batch %d, want 8", got)
	}
	if got := pm.MaxBatch(JetsonBatchSweep, true, EndToEndMaxBatch); got != 2 {
		t.Errorf("Jetson ViT_Base pipeline max batch %d, want 2", got)
	}
	if got := pm.MaxBatch(JetsonBatchSweep, false, 4); got != 4 {
		t.Errorf("cap not honored: %d", got)
	}
}

func TestNewPerfModelErrors(t *testing.T) {
	if _, err := NewPerfModel(A100(), "ViT_Tiny", 0, 1); err == nil {
		t.Error("zero FLOPs accepted")
	}
	if _, err := NewPerfModel(A100(), "NoSuchModel", 1e9, 1); err == nil {
		t.Error("uncalibrated model accepted")
	}
}

func TestTransferSeconds(t *testing.T) {
	pm := newPM(t, A100(), "ViT_Tiny")
	if s := pm.TransferSeconds(24_000_000_000); math.Abs(s-1) > 1e-9 {
		t.Errorf("A100 transfer of 24GB = %v s, want 1", s)
	}
	jm := newPM(t, Jetson(), "ViT_Tiny")
	if s := jm.TransferSeconds(1 << 30); s != 0 {
		t.Errorf("unified memory transfer %v, want 0", s)
	}
}

func TestGemmEfficiencyReproducesTable1(t *testing.T) {
	for _, p := range All() {
		if got := PracticalTFLOPSMeasured(p); math.Abs(got-p.PracticalTFLOPS) > 0.01 {
			t.Errorf("%s measured practical %v, want %v", p.Name, got, p.PracticalTFLOPS)
		}
	}
}

func TestGemmSweepMonotone(t *testing.T) {
	sizes := []int{128, 256, 512, 1024, 2048, 4096, 8192}
	for _, p := range All() {
		pts := GemmSweep(p, sizes)
		for i := 1; i < len(pts); i++ {
			if pts[i].TFLOPS <= pts[i-1].TFLOPS {
				t.Errorf("%s GEMM sweep not increasing at N=%d", p.Name, pts[i].N)
			}
		}
		last := pts[len(pts)-1]
		if last.Efficiency > 1 || last.Efficiency < 0.5 {
			t.Errorf("%s large-GEMM efficiency %v implausible", p.Name, last.Efficiency)
		}
	}
}

func TestHostGemmRuns(t *testing.T) {
	if g := HostGemmGFLOPS(64); g <= 0 {
		t.Errorf("host GEMM reported %v GFLOPS", g)
	}
}

func TestGPUPreprocModelShape(t *testing.T) {
	p := A100()
	// Larger inputs decode slower.
	small := GPUPreprocImageSeconds(p, 100*100, 32*32)
	big := GPUPreprocImageSeconds(p, 3840*2160, 32*32)
	if big <= small {
		t.Error("decode cost not increasing with input pixels")
	}
	// Larger outputs transform slower.
	lo := GPUPreprocImageSeconds(p, 256*256, 32*32)
	hi := GPUPreprocImageSeconds(p, 256*256, 224*224)
	if hi <= lo {
		t.Error("transform cost not increasing with output pixels")
	}
}

func TestGPUPreprocConvergenceAtHighRes(t *testing.T) {
	// Fig. 7: at DALI 224 dataset differences converge (transform
	// dominates); at DALI 32 they don't.
	p := A100()
	sizes := []int{100 * 100, 256 * 256}
	ratioAt := func(out int) float64 {
		a := GPUPreprocImageSeconds(p, sizes[0], out*out)
		b := GPUPreprocImageSeconds(p, sizes[1], out*out)
		return b / a
	}
	if r224, r32 := ratioAt(224), ratioAt(32); r224 >= r32 {
		t.Errorf("dataset cost ratio did not shrink at high res: %.3f vs %.3f", r224, r32)
	}
}

func TestGPUPreprocBatchAndThroughput(t *testing.T) {
	p := V100()
	in := make([]int, 64)
	for i := range in {
		in[i] = 256 * 256
	}
	batchSec := GPUPreprocBatchSeconds(p, in, 224*224)
	per := GPUPreprocImageSeconds(p, 256*256, 224*224)
	if batchSec <= 64*per {
		t.Error("batch cost should include fixed overhead")
	}
	if want := 64*per + p.PreBatchFixedNs/1e9; math.Abs(batchSec-want) > 1e-12 {
		t.Errorf("batch seconds %v, want 64 images plus one fixed overhead = %v", batchSec, want)
	}
}

func TestScaleCPUSeconds(t *testing.T) {
	if s := ScaleCPUSeconds(A100(), 1); s != 1 {
		t.Errorf("A100 CPU scale changed time: %v", s)
	}
	if s := ScaleCPUSeconds(Jetson(), 1); math.Abs(s-1/0.45) > 1e-9 {
		t.Errorf("Jetson CPU scale %v, want %v", s, 1/0.45)
	}
	// Degenerate rel guards.
	p := &Platform{}
	if s := ScaleCPUSeconds(p, 2); s != 2 {
		t.Errorf("zero-rel scale %v", s)
	}
}

func TestBatchSweepCopies(t *testing.T) {
	s := BatchSweep(KeyA100)
	s[0] = 999
	if CloudBatchSweep[0] == 999 {
		t.Error("BatchSweep returned shared slice")
	}
	if len(BatchSweep(KeyJetson)) != len(JetsonBatchSweep) {
		t.Error("Jetson sweep length wrong")
	}
}

func TestThroughputQuickPositive(t *testing.T) {
	pm := newPM(t, A100(), "ViT_Small")
	f := func(raw uint16) bool {
		b := 1 + int(raw)%2048
		thr := pm.ThroughputImgPerSec(b)
		lat := pm.LatencySeconds(b)
		if thr <= 0 || lat <= 0 {
			return false
		}
		// throughput * latency == batch (definition consistency)
		return math.Abs(thr*lat-float64(b)) < 1e-6*float64(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
