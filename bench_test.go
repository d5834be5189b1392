// Package harvest's root benchmark harness: one testing.B benchmark per
// paper artifact (Tables 1-3, Figures 4-8) regenerating the artifact's
// data, plus ablation benchmarks for the design choices DESIGN.md §5
// calls out (dynamic batching window, preprocessing/inference overlap,
// multi-instance engines, preprocessing placement, CPU workers).
//
// Run: go test -bench=. -benchmem
package harvest

import (
	"context"
	"fmt"
	"testing"
	"time"

	"harvest/internal/datasets"
	"harvest/internal/engine"
	"harvest/internal/experiments"
	"harvest/internal/hw"
	"harvest/internal/models"
	"harvest/internal/pipeline"
	"harvest/internal/preprocess"
	"harvest/internal/serve"
)

func benchOpts() experiments.Options {
	return experiments.Options{Quick: true, Seed: 42}
}

func runArtifact(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		a, err := experiments.RunAny(id, benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if len(a.Render()) == 0 {
			b.Fatal("empty artifact")
		}
	}
}

// BenchmarkTable1_PracticalFLOPS regenerates Table 1 (platforms and
// GEMM-measured practical TFLOPS).
func BenchmarkTable1_PracticalFLOPS(b *testing.B) { runArtifact(b, "table1") }

// BenchmarkTable2_DatasetGen regenerates Table 2 (dataset inventory).
func BenchmarkTable2_DatasetGen(b *testing.B) { runArtifact(b, "table2") }

// BenchmarkTable3_ModelSpecs regenerates Table 3 (models, layer-wise
// GFLOPs, throughput upper bounds).
func BenchmarkTable3_ModelSpecs(b *testing.B) { runArtifact(b, "table3") }

// BenchmarkFig4_SizeDistribution regenerates Fig. 4 (image-size
// densities with modal labels).
func BenchmarkFig4_SizeDistribution(b *testing.B) { runArtifact(b, "fig4") }

// BenchmarkFig5_EngineScaling regenerates Fig. 5 (TFLOPS vs batch).
func BenchmarkFig5_EngineScaling(b *testing.B) { runArtifact(b, "fig5") }

// BenchmarkFig6_LatencyVsBatch regenerates Fig. 6 (latency vs batch
// with the 60 QPS threshold).
func BenchmarkFig6_LatencyVsBatch(b *testing.B) { runArtifact(b, "fig6") }

// BenchmarkFig7_Preprocessing regenerates Fig. 7 (preprocessing latency
// and throughput per dataset and engine). The CPU baselines really run.
func BenchmarkFig7_Preprocessing(b *testing.B) { runArtifact(b, "fig7") }

// BenchmarkFig8_EndToEnd regenerates Fig. 8 (end-to-end latency and
// throughput at the largest batch before OOM).
func BenchmarkFig8_EndToEnd(b *testing.B) { runArtifact(b, "fig8") }

// BenchmarkExtension_Energy regenerates the energy-efficiency table.
func BenchmarkExtension_Energy(b *testing.B) { runArtifact(b, "energy") }

// BenchmarkExtension_Prediction regenerates the prediction-toolkit
// validation and planner tables.
func BenchmarkExtension_Prediction(b *testing.B) { runArtifact(b, "prediction") }

// BenchmarkExtension_ScaleOut regenerates the two-GPU scale-out study.
func BenchmarkExtension_ScaleOut(b *testing.B) { runArtifact(b, "scaleout") }

// BenchmarkExtension_Offload regenerates the edge-vs-cloud offload
// analysis (includes real JPEG encodes).
func BenchmarkExtension_Offload(b *testing.B) { runArtifact(b, "offload") }

// BenchmarkExtension_Roofline regenerates the compute/memory roofline
// analysis.
func BenchmarkExtension_Roofline(b *testing.B) { runArtifact(b, "roofline") }

// BenchmarkExtension_Ablations regenerates the DESIGN.md §5 ablation
// tables (simulated counterparts of the wall-clock ablation benches
// below).
func BenchmarkExtension_Ablations(b *testing.B) { runArtifact(b, "ablations") }

// --- Ablation benches (DESIGN.md §5) ---

// BenchmarkAblation_BatchingWindow measures served throughput under
// open-loop load for different dynamic-batching windows.
func BenchmarkAblation_BatchingWindow(b *testing.B) {
	for _, window := range []time.Duration{0, time.Millisecond, 5 * time.Millisecond} {
		b.Run(fmt.Sprintf("window=%s", window), func(b *testing.B) {
			srv := serve.NewServer()
			defer srv.Close()
			eng, err := engine.New(hw.A100(), models.NameViTSmall)
			if err != nil {
				b.Fatal(err)
			}
			if err := srv.Register(serve.ModelConfig{
				Name: "m", Engine: eng, MaxBatch: 64, QueueDelay: window,
			}); err != nil {
				b.Fatal(err)
			}
			ctx := context.Background()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				done := make(chan error, 16)
				for r := 0; r < 16; r++ {
					go func() {
						_, err := srv.Submit(ctx, &serve.Request{Model: "m", Items: 4})
						done <- err
					}()
				}
				for r := 0; r < 16; r++ {
					if err := <-done; err != nil {
						b.Fatal(err)
					}
				}
			}
			m, err := srv.MetricsFor("m")
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(m.Items)/float64(max(m.Batches, 1)), "items/batch")
		})
	}
}

// BenchmarkAblation_Overlap compares pipelined vs strictly serial
// end-to-end execution (the Fig. 8 mechanism).
func BenchmarkAblation_Overlap(b *testing.B) {
	spec, err := datasets.ByName(datasets.SlugCornGrowth)
	if err != nil {
		b.Fatal(err)
	}
	for _, overlap := range []bool{false, true} {
		b.Run(fmt.Sprintf("overlap=%v", overlap), func(b *testing.B) {
			var thr float64
			for i := 0; i < b.N; i++ {
				res, err := pipeline.Run(pipeline.Config{
					Platform: hw.A100(), Model: models.NameViTBase,
					Dataset: spec, Batches: 16, Overlap: overlap,
				})
				if err != nil {
					b.Fatal(err)
				}
				thr = res.Throughput
			}
			b.ReportMetric(thr, "img/s")
		})
	}
}

// BenchmarkAblation_MultiInstance compares 1 vs 4 engine instances
// under many small concurrent requests (paper §5: multi-instance
// strategies improve responsiveness past the batch-scaling knee).
func BenchmarkAblation_MultiInstance(b *testing.B) {
	for _, instances := range []int{1, 4} {
		b.Run(fmt.Sprintf("instances=%d", instances), func(b *testing.B) {
			srv := serve.NewServer()
			defer srv.Close()
			eng, err := engine.New(hw.A100(), models.NameResNet50)
			if err != nil {
				b.Fatal(err)
			}
			if err := srv.Register(serve.ModelConfig{
				Name: "m", Engine: eng, MaxBatch: 16,
				QueueDelay: 200 * time.Microsecond, Instances: instances,
			}); err != nil {
				b.Fatal(err)
			}
			ctx := context.Background()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				done := make(chan error, 32)
				for r := 0; r < 32; r++ {
					go func() {
						_, err := srv.Submit(ctx, &serve.Request{Model: "m", Items: 2})
						done <- err
					}()
				}
				for r := 0; r < 32; r++ {
					if err := <-done; err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkAblation_PreprocPlacement compares modeled GPU (DALI) vs
// real CPU preprocessing per platform on Plant Village images.
func BenchmarkAblation_PreprocPlacement(b *testing.B) {
	spec, err := datasets.ByName(datasets.SlugPlantVillage)
	if err != nil {
		b.Fatal(err)
	}
	ds := datasets.MustNew(spec, 42)
	items := make([]preprocess.Item, 4)
	for i := range items {
		items[i], err = preprocess.ItemFromDataset(ds, i)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range hw.FigureOrder() {
		for _, gpu := range []bool{true, false} {
			name := fmt.Sprintf("%s/gpu=%v", p.Name, gpu)
			b.Run(name, func(b *testing.B) {
				var eng preprocess.Engine
				if gpu {
					eng = &preprocess.GPUEngine{Platform: p, Out: 224}
				} else {
					eng = &preprocess.CPUEngine{Platform: p, Out: 224}
				}
				var sec float64
				for i := 0; i < b.N; i++ {
					res, err := eng.ProcessBatch(items)
					if err != nil {
						b.Fatal(err)
					}
					sec = res.Seconds
				}
				b.ReportMetric(sec*1000/float64(len(items)), "platform-ms/img")
			})
		}
	}
}

// BenchmarkAblation_CPUWorkers measures real CPU preprocessing with 1
// vs GOMAXPROCS workers (the paper's future-work parallel CPU path).
func BenchmarkAblation_CPUWorkers(b *testing.B) {
	spec, err := datasets.ByName(datasets.SlugPlantVillage)
	if err != nil {
		b.Fatal(err)
	}
	ds := datasets.MustNew(spec, 42)
	items := make([]preprocess.Item, 8)
	for i := range items {
		items[i], err = preprocess.ItemFromDataset(ds, i)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			eng := &preprocess.CPUEngine{Platform: hw.A100(), Out: 224, Workers: workers}
			for i := 0; i < b.N; i++ {
				if _, err := eng.ProcessBatch(items); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
