package pipeline

import (
	"testing"

	"harvest/internal/datasets"
	"harvest/internal/hw"
	"harvest/internal/models"
)

func evalSpec(t *testing.T, slug string) datasets.Spec {
	t.Helper()
	spec, err := datasets.ByName(slug)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestRunBasic(t *testing.T) {
	res, err := Run(Config{
		Platform: hw.A100(),
		Model:    models.NameViTBase,
		Dataset:  evalSpec(t, datasets.SlugPlantVillage),
		Batches:  8,
		Overlap:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Batch != 64 {
		t.Errorf("auto batch %d, want 64 (A100 Fig. 8)", res.Batch)
	}
	if res.Throughput <= 0 || res.LatencyMs <= 0 {
		t.Errorf("degenerate result %+v", res)
	}
	if res.Throughput > res.EngineBoundThroughput {
		t.Errorf("e2e throughput %v exceeds engine bound %v", res.Throughput, res.EngineBoundThroughput)
	}
}

func TestOverlapBeatsSequential(t *testing.T) {
	cfg := Config{
		Platform: hw.V100(),
		Model:    models.NameViTTiny,
		Dataset:  evalSpec(t, datasets.SlugCornGrowth),
		Batches:  16,
	}
	cfg.Overlap = true
	over, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Overlap = false
	seq, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if over.Throughput <= seq.Throughput {
		t.Errorf("overlap throughput %v not above sequential %v", over.Throughput, seq.Throughput)
	}
	// Per-batch latency of a single batch is the same stages either
	// way; sequential must not have *lower* latency.
	if seq.LatencyMs < over.LatencyMs*0.5 {
		t.Errorf("sequential latency %v suspiciously below overlapped %v", seq.LatencyMs, over.LatencyMs)
	}
}

func TestFig8MaxBatchBoundaries(t *testing.T) {
	cases := []struct {
		platform *hw.Platform
		model    string
		batch    int
	}{
		{hw.A100(), models.NameViTBase, 64},
		{hw.V100(), models.NameViTBase, 2},
		{hw.V100(), models.NameViTSmall, 32},
		{hw.V100(), models.NameResNet50, 32},
		{hw.Jetson(), models.NameViTBase, 2},
		{hw.Jetson(), models.NameViTTiny, 64},
	}
	for _, c := range cases {
		res, err := Run(Config{
			Platform: c.platform, Model: c.model,
			Dataset: evalSpec(t, datasets.SlugPlantVillage),
			Batches: 4, Overlap: true,
		})
		if err != nil {
			t.Fatalf("%s/%s: %v", c.platform.Name, c.model, err)
		}
		if res.Batch != c.batch {
			t.Errorf("%s/%s auto batch %d, want %d", c.platform.Name, c.model, res.Batch, c.batch)
		}
	}
}

func TestBottleneckIdentification(t *testing.T) {
	// A100 ViT_Base is inference-bound (paper: approaches engine
	// bound); A100 ViT_Tiny is preprocessing-bound.
	base, err := Run(Config{Platform: hw.A100(), Model: models.NameViTBase,
		Dataset: evalSpec(t, datasets.SlugPlantVillage), Batches: 4, Overlap: true})
	if err != nil {
		t.Fatal(err)
	}
	if base.Bottleneck != "inference" {
		t.Errorf("A100 ViT_Base bottleneck %q, want inference", base.Bottleneck)
	}
	tiny, err := Run(Config{Platform: hw.A100(), Model: models.NameViTTiny,
		Dataset: evalSpec(t, datasets.SlugPlantVillage), Batches: 4, Overlap: true})
	if err != nil {
		t.Fatal(err)
	}
	if tiny.Bottleneck != "preprocess" {
		t.Errorf("A100 ViT_Tiny bottleneck %q, want preprocess", tiny.Bottleneck)
	}
}

func TestLargeModelsApproachEngineBound(t *testing.T) {
	// Paper Fig. 8 (A100): larger models overlap preprocessing behind
	// inference and approach the engine's bound.
	res, err := Run(Config{Platform: hw.A100(), Model: models.NameViTBase,
		Dataset: evalSpec(t, datasets.SlugCornGrowth), Batches: 24, Overlap: true})
	if err != nil {
		t.Fatal(err)
	}
	if ratio := res.Throughput / res.EngineBoundThroughput; ratio < 0.85 {
		t.Errorf("A100 ViT_Base e2e/engine ratio %.2f, want >= 0.85", ratio)
	}
	// Small models are preprocessing-bottlenecked: clearly below bound.
	tiny, err := Run(Config{Platform: hw.V100(), Model: models.NameViTTiny,
		Dataset: evalSpec(t, datasets.SlugCornGrowth), Batches: 24, Overlap: true})
	if err != nil {
		t.Fatal(err)
	}
	if ratio := tiny.Throughput / tiny.EngineBoundThroughput; ratio > 0.8 {
		t.Errorf("V100 ViT_Tiny e2e/engine ratio %.2f, want preprocessing-bound (< 0.8)", ratio)
	}
}

func TestCPUPreprocPath(t *testing.T) {
	cfg := Config{
		Platform:               hw.V100(),
		Model:                  models.NameResNet50,
		Dataset:                evalSpec(t, datasets.SlugPlantVillage),
		Batches:                4,
		Overlap:                true,
		CPUPreproc:             true,
		HostCPUSecondsPerImage: 0.004,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Bottleneck != "preprocess" {
		t.Errorf("CPU preprocessing should bottleneck: %+v", res)
	}
	gpu := cfg
	gpu.CPUPreproc = false
	gres, err := Run(gpu)
	if err != nil {
		t.Fatal(err)
	}
	if gres.Throughput <= res.Throughput {
		t.Errorf("GPU preprocessing (%v img/s) not faster than CPU (%v img/s)",
			gres.Throughput, res.Throughput)
	}
}

func TestConfigErrors(t *testing.T) {
	spec := evalSpec(t, datasets.SlugPlantVillage)
	if _, err := Run(Config{Model: models.NameViTTiny, Dataset: spec}); err == nil {
		t.Error("nil platform accepted")
	}
	if _, err := Run(Config{Platform: hw.A100(), Model: "ghost", Dataset: spec}); err == nil {
		t.Error("unknown model accepted")
	}
	if _, err := Run(Config{Platform: hw.A100(), Model: models.NameViTTiny,
		Dataset: spec, CPUPreproc: true}); err == nil {
		t.Error("CPUPreproc without host seconds accepted")
	}
}

func TestExplicitBatchOOM(t *testing.T) {
	if _, err := Run(Config{
		Platform: hw.Jetson(), Model: models.NameViTBase,
		Dataset: evalSpec(t, datasets.SlugPlantVillage),
		Batch:   64, Batches: 2, Overlap: true,
	}); err == nil {
		t.Error("Jetson ViT_Base batch 64 should OOM in pipeline mode")
	}
}

func TestStageCostsSumConsistency(t *testing.T) {
	res, err := Run(Config{Platform: hw.V100(), Model: models.NameViTSmall,
		Dataset: evalSpec(t, datasets.SlugFruits360), Batches: 8, Overlap: false})
	if err != nil {
		t.Fatal(err)
	}
	sumMs := (res.PreprocSeconds + res.TransferSeconds + res.InferSeconds) * 1000
	if diff := res.LatencyMs - sumMs; diff < -0.01 || diff > 0.01 {
		t.Errorf("sequential latency %v ms != stage sum %v ms", res.LatencyMs, sumMs)
	}
}
