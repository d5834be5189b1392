package pipeline

import (
	"testing"

	"harvest/internal/hw"
	"harvest/internal/models"
)

func TestRunOnlineValidation(t *testing.T) {
	if _, err := RunOnline(OnlineConfig{}); err == nil {
		t.Error("nil platform accepted")
	}
	if _, err := RunOnline(OnlineConfig{Platform: hw.A100(), Model: models.NameViTTiny,
		RatePerSec: 10}); err == nil {
		t.Error("zero batch accepted")
	}
	if _, err := RunOnline(OnlineConfig{Platform: hw.A100(), Model: models.NameViTTiny,
		Batch: 8}); err == nil {
		t.Error("zero rate accepted")
	}
	if _, err := RunOnline(OnlineConfig{Platform: hw.A100(), Model: "ghost",
		Batch: 8, RatePerSec: 10}); err == nil {
		t.Error("unknown model accepted")
	}
}

func TestRunOnlineUnderload(t *testing.T) {
	res, err := RunOnline(OnlineConfig{
		Platform: hw.A100(), Model: models.NameViTSmall,
		Batch: 16, RatePerSec: 30, HorizonSeconds: 10, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests == 0 || res.Served == 0 {
		t.Fatalf("nothing served: %+v", res)
	}
	// Underloaded: goodput tracks offered load.
	if res.Goodput < res.Offered*0.85 {
		t.Errorf("goodput %v well below offered %v", res.Goodput, res.Offered)
	}
	if res.MeanMs <= 0 || res.P99Ms < res.P95Ms || res.P95Ms < res.MeanMs*0.5 {
		t.Errorf("latency stats inconsistent: %+v", res)
	}
}

func TestRunOnlineLatencyGrowsWithLoad(t *testing.T) {
	cfg := OnlineConfig{
		Platform: hw.V100(), Model: models.NameViTSmall,
		Batch: 32, HorizonSeconds: 10, Seed: 2,
	}
	var results []OnlineResult
	for _, rate := range []float64{10, 40, 70} {
		cfg.RatePerSec = rate
		res, err := RunOnline(cfg)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, res)
	}
	if results[2].MeanMs <= results[0].MeanMs {
		t.Errorf("latency did not grow with load: %v vs %v", results[0].MeanMs, results[2].MeanMs)
	}
}

func TestRunOnlineOverloadCapsGoodput(t *testing.T) {
	res, err := RunOnline(OnlineConfig{
		Platform: hw.Jetson(), Model: models.NameViTSmall,
		Batch: 16, RatePerSec: 200, HorizonSeconds: 5, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Goodput >= res.Offered {
		t.Errorf("overloaded goodput %v not below offered %v", res.Goodput, res.Offered)
	}
	if res.SLOMissRate < 0.5 {
		t.Errorf("overload miss rate %v suspiciously low", res.SLOMissRate)
	}
}

func TestRunOnlineOOMBatch(t *testing.T) {
	if _, err := RunOnline(OnlineConfig{
		Platform: hw.Jetson(), Model: models.NameViTBase,
		Batch: 64, RatePerSec: 1,
	}); err == nil {
		t.Error("OOM batch accepted")
	}
}
