package hw

import (
	"math"
	"testing"
)

func TestJetsonPowerModeValidation(t *testing.T) {
	for _, w := range JetsonPowerWatts {
		p, err := JetsonPowerMode(w)
		if err != nil {
			t.Fatalf("%vW: %v", w, err)
		}
		if p.PowerW != w {
			t.Errorf("%vW mode reports %vW", w, p.PowerW)
		}
	}
	if _, err := JetsonPowerMode(10); err == nil {
		t.Error("unsupported power mode accepted")
	}
}

func TestJetson25WIsReference(t *testing.T) {
	p, err := JetsonPowerMode(25)
	if err != nil {
		t.Fatal(err)
	}
	ref := Jetson()
	if p.PracticalTFLOPS != ref.PracticalTFLOPS || p.CalibPracticalTFLOPS != 0 {
		t.Errorf("25W mode altered the reference platform: %+v", p)
	}
}

func TestJetsonLowPowerScalesDown(t *testing.T) {
	low, err := JetsonPowerMode(7)
	if err != nil {
		t.Fatal(err)
	}
	ref := Jetson()
	wantScale := math.Pow(7.0/25, 0.8)
	if got := low.PracticalTFLOPS / ref.PracticalTFLOPS; math.Abs(got-wantScale) > 1e-9 {
		t.Errorf("7W GPU scale %v, want %v", got, wantScale)
	}
	// Preprocessing gets slower, not faster.
	if low.PreFixedNs <= ref.PreFixedNs {
		t.Error("7W preprocessing not slower")
	}
	// Memory (and therefore OOM boundaries) unchanged.
	if low.GPUMemBytes != ref.GPUMemBytes || low.MemReserveBytes != ref.MemReserveBytes {
		t.Error("power mode changed memory")
	}
	// Calibration reference preserved.
	if low.CalibPractical() != ref.PracticalTFLOPS {
		t.Errorf("calibration reference %v, want %v", low.CalibPractical(), ref.PracticalTFLOPS)
	}
}

func TestPowerModePerfModelConsistency(t *testing.T) {
	// MFU stays calibrated across modes; throughput scales with the
	// mode's FLOPS; memory boundaries are identical.
	ref := Jetson()
	low, err := JetsonPowerMode(15)
	if err != nil {
		t.Fatal(err)
	}
	flops := 16.849e9
	pmRef, err := NewPerfModel(ref, "ViT_Base", flops, 173<<20)
	if err != nil {
		t.Fatal(err)
	}
	pmLow, err := NewPerfModel(low, "ViT_Base", flops, 173<<20)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pmRef.mfuMax-pmLow.mfuMax) > 1e-12 {
		t.Errorf("MFUmax changed across power modes: %v vs %v", pmRef.mfuMax, pmLow.mfuMax)
	}
	scale := low.PracticalTFLOPS / ref.PracticalTFLOPS
	gotScale := pmLow.ThroughputImgPerSec(8) / pmRef.ThroughputImgPerSec(8)
	if math.Abs(gotScale-scale) > 1e-9 {
		t.Errorf("throughput scale %v, want %v", gotScale, scale)
	}
	if pmLow.MaxBatch(JetsonBatchSweep, false, 0) != pmRef.MaxBatch(JetsonBatchSweep, false, 0) {
		t.Error("power mode changed OOM boundary")
	}
}

func TestPowerModeEnergyTradeoff(t *testing.T) {
	// Lower power modes are slower but must win images/joule under the
	// sub-linear scaling: perf drops as W^0.8 while power drops as W.
	ref := Jetson()
	low, err := JetsonPowerMode(7)
	if err != nil {
		t.Fatal(err)
	}
	flops := 1.365e9
	pmRef, err := NewPerfModel(ref, "ViT_Tiny", flops, 11<<20)
	if err != nil {
		t.Fatal(err)
	}
	pmLow, err := NewPerfModel(low, "ViT_Tiny", flops, 11<<20)
	if err != nil {
		t.Fatal(err)
	}
	// img/J at full utilization ~ throughput / power.
	refIPJ := pmRef.ThroughputImgPerSec(64) / ref.PowerW
	lowIPJ := pmLow.ThroughputImgPerSec(64) / low.PowerW
	if lowIPJ <= refIPJ {
		t.Errorf("7W mode img/J %v not above 25W %v", lowIPJ, refIPJ)
	}
}
