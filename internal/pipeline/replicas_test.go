package pipeline

import (
	"testing"

	"harvest/internal/hw"
	"harvest/internal/models"
)

func TestRunReplicasValidation(t *testing.T) {
	if _, err := RunReplicas(ReplicaConfig{}); err == nil {
		t.Error("nil platform accepted")
	}
	if _, err := RunReplicas(ReplicaConfig{Platform: hw.A100(), Model: models.NameViTBase,
		Replicas: 0, OfferedBatchesPerSec: 1}); err == nil {
		t.Error("zero replicas accepted")
	}
	if _, err := RunReplicas(ReplicaConfig{Platform: hw.A100(), Model: models.NameViTBase,
		Replicas: 1}); err == nil {
		t.Error("zero rate accepted")
	}
	if _, err := RunReplicas(ReplicaConfig{Platform: hw.A100(), Model: "ghost",
		Replicas: 1, OfferedBatchesPerSec: 1}); err == nil {
		t.Error("unknown model accepted")
	}
}

func TestUnderloadServesOfferedLoad(t *testing.T) {
	res, err := RunReplicas(ReplicaConfig{
		Platform: hw.A100(), Model: models.NameViTBase,
		Replicas: 1, Batch: 64,
		OfferedBatchesPerSec: 20, // well under ~49 batches/s capacity
		HorizonSeconds:       10, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Throughput < res.OfferedImgPerSec*0.9 {
		t.Errorf("underload throughput %v below offered %v", res.Throughput, res.OfferedImgPerSec)
	}
	if res.Utilization > 0.7 {
		t.Errorf("underload utilization %v too high", res.Utilization)
	}
	if res.MeanLatencySeconds <= 0 || res.P99LatencySeconds < res.MeanLatencySeconds {
		t.Errorf("latency stats inconsistent: %+v", res)
	}
}

func TestTwoReplicasDoubleCapacity(t *testing.T) {
	base := ReplicaConfig{
		Platform: hw.A100(), Model: models.NameViTBase,
		Batch: 64, HorizonSeconds: 10, Seed: 2,
	}
	// Overload both so throughput measures capacity.
	one := base
	one.Replicas = 1
	one.OfferedBatchesPerSec = 200
	r1, err := RunReplicas(one)
	if err != nil {
		t.Fatal(err)
	}
	two := base
	two.Replicas = 2
	two.OfferedBatchesPerSec = 200
	r2, err := RunReplicas(two)
	if err != nil {
		t.Fatal(err)
	}
	ratio := r2.Throughput / r1.Throughput
	if ratio < 1.85 || ratio > 2.1 {
		t.Errorf("2-replica capacity ratio %.3f, want ~2", ratio)
	}
	if r1.Utilization < 0.95 || r2.Utilization < 0.95 {
		t.Errorf("overloaded pools not saturated: %v %v", r1.Utilization, r2.Utilization)
	}
}

func TestQueueingLatencyDropsWithSecondReplica(t *testing.T) {
	base := ReplicaConfig{
		Platform: hw.V100(), Model: models.NameViTBase,
		Batch: 64, HorizonSeconds: 10, Seed: 3,
		OfferedBatchesPerSec: 18, // ~78% of one V100 replica's capacity
	}
	one := base
	one.Replicas = 1
	r1, err := RunReplicas(one)
	if err != nil {
		t.Fatal(err)
	}
	two := base
	two.Replicas = 2
	r2, err := RunReplicas(two)
	if err != nil {
		t.Fatal(err)
	}
	if r2.MeanLatencySeconds >= r1.MeanLatencySeconds {
		t.Errorf("second replica did not reduce latency: %v vs %v",
			r2.MeanLatencySeconds, r1.MeanLatencySeconds)
	}
}

func TestAutoBatchUsesOOMBoundary(t *testing.T) {
	res, err := RunReplicas(ReplicaConfig{
		Platform: hw.Jetson(), Model: models.NameViTBase,
		Replicas: 1, OfferedBatchesPerSec: 5, HorizonSeconds: 5, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Batch != 8 {
		t.Errorf("auto batch %d, want Jetson ViT_Base engine-only boundary 8", res.Batch)
	}
}

// TestUtilizationAtSaturationNotBiasedLow: busy time is clipped to the
// horizon, so a saturated pool reports ~1.0 even when batches are
// still executing when the horizon closes. The old accounting counted
// only *completed* batches' service time, which at saturation with
// service times comparable to the horizon under-reported utilization
// by up to one batch per replica.
func TestUtilizationAtSaturationNotBiasedLow(t *testing.T) {
	res, err := RunReplicas(ReplicaConfig{
		Platform: hw.Jetson(), Model: models.NameViTBase,
		Replicas: 1, Batch: 8,
		OfferedBatchesPerSec: 1000, // far past capacity: never idle
		HorizonSeconds:       1, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Utilization < 0.97 || res.Utilization > 1.0000001 {
		t.Errorf("saturated utilization %v, want ~1.0 (busy time clipped to horizon)", res.Utilization)
	}
}

func TestSaturationSweep(t *testing.T) {
	cfg := ReplicaConfig{
		Platform: hw.A100(), Model: models.NameResNet50,
		Replicas: 2, Batch: 64, HorizonSeconds: 5, Seed: 5,
	}
	var results []ReplicaResult
	for _, rate := range []float64{10, 50, 400} {
		cfg.OfferedBatchesPerSec = rate
		res, err := RunReplicas(cfg)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, res)
	}
	// Latency must be non-decreasing with load.
	if results[2].MeanLatencySeconds < results[0].MeanLatencySeconds {
		t.Error("latency decreased under heavier load")
	}
	// Throughput is capped at capacity.
	if results[2].Throughput > results[2].OfferedImgPerSec {
		t.Error("throughput exceeded offered load")
	}
}
