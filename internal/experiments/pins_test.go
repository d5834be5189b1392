package experiments

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"harvest/internal/datasets"
	"harvest/internal/fleet"
	"harvest/internal/hw"
	"harvest/internal/models"
	"harvest/internal/pipeline"
	"harvest/internal/scaleout"
)

// bits renders name=value pairs with each float64 as its exact bit
// pattern (and the value beside it for a reader), so a pin catches a
// change in the last bit, not only in a rounded print.
func bits(pairs ...any) string {
	var b strings.Builder
	for i := 0; i < len(pairs); i += 2 {
		if v, ok := pairs[i+1].(float64); ok {
			fmt.Fprintf(&b, " %s=%016x(%g)", pairs[i], math.Float64bits(v), v)
		} else {
			fmt.Fprintf(&b, " %s=%v", pairs[i], pairs[i+1])
		}
	}
	return b.String()
}

// modeledPins runs the queueing models beneath the artifacts on a small
// grid: pipeline.Run (overlap on and off, GPU and CPU preprocessing),
// pipeline.RunOnline, scaleout.Run and fleet.PlanCapacity's chosen
// candidate. One line per case; errors are pinned too.
func modeledPins() []string {
	var lines []string
	pin := func(name string, err error, fields ...any) {
		if err != nil {
			lines = append(lines, name+": err="+err.Error())
			return
		}
		lines = append(lines, name+":"+bits(fields...))
	}
	spec := mustSpec(datasets.SlugPlantVillage)
	for _, p := range hw.All() {
		for _, model := range models.Names() {
			for _, batch := range []int{0, 4} {
				for _, overlap := range []bool{true, false} {
					for _, cpu := range []bool{false, true} {
						cfg := pipeline.Config{Platform: p, Model: model, Dataset: spec,
							Batch: batch, Batches: 8, Overlap: overlap, CPUPreproc: cpu}
						if cpu {
							cfg.HostCPUSecondsPerImage = 0.0035
						}
						r, err := pipeline.Run(cfg)
						pin(fmt.Sprintf("Run %s %s b%d overlap=%v cpu=%v", p.Name, model, batch, overlap, cpu), err,
							"batch", r.Batch, "latency_ms", r.LatencyMs, "throughput", r.Throughput,
							"pre", r.PreprocSeconds, "transfer", r.TransferSeconds, "infer", r.InferSeconds,
							"bottleneck", r.Bottleneck, "engine_bound", r.EngineBoundThroughput)
					}
				}
			}
			for _, batch := range []int{1, 16} {
				for _, rate := range []float64{5, 30, 200} {
					r, err := pipeline.RunOnline(pipeline.OnlineConfig{Platform: p, Model: model,
						Batch: batch, RatePerSec: rate, HorizonSeconds: 5, SLOSeconds: 0.5, Seed: 3})
					pin(fmt.Sprintf("RunOnline %s %s b%d %grps", p.Name, model, batch, rate), err,
						"requests", r.Requests, "served", r.Served, "offered", r.Offered, "goodput", r.Goodput,
						"mean_ms", r.MeanMs, "p95_ms", r.P95Ms, "p99_ms", r.P99Ms, "slo_miss", r.SLOMissRate)
				}
			}
		}
		for _, model := range []string{models.NameViTBase, models.NameResNet50} {
			for _, batch := range []int{0, 1} {
				for _, replicas := range []int{1, 2, 4} {
					for _, rate := range []float64{20, 150, 1000} {
						r, err := scaleout.Run(scaleout.Config{Platform: p, Model: model, Replicas: replicas,
							Batch: batch, OfferedBatchesPerSec: rate, HorizonSeconds: 5, Seed: 3})
						pin(fmt.Sprintf("scaleout %s %s b%d x%d %grps", p.Name, model, batch, replicas, rate), err,
							"batch", r.Batch, "offered", r.OfferedImgPerSec, "throughput", r.Throughput,
							"mean_s", r.MeanLatencySeconds, "p99_s", r.P99LatencySeconds,
							"util", r.Utilization, "completed", r.Completed)
					}
				}
			}
		}
	}
	for _, platforms := range [][]string{{hw.KeyA100}, {hw.KeyJetson}, {hw.KeyA100, hw.KeyJetson}} {
		for _, rps := range []float64{50, 400, 2000} {
			for _, slo := range []time.Duration{100 * time.Millisecond, 500 * time.Millisecond} {
				plan, err := fleet.PlanCapacity(fleet.OracleConfig{Model: models.NameViTBase,
					Platforms: platforms, MaxReplicas: 6, HorizonSeconds: 5}, rps, slo)
				c := plan.Chosen
				pin(fmt.Sprintf("PlanCapacity %v %grps slo=%v", platforms, rps, slo), err,
					"platform", c.Platform, "replicas", c.Replicas, "img_per_s", c.PredictedImgPerSec,
					"p99_ms", c.PredictedP99Ms, "util", c.PredictedUtilization, "power_w", c.PowerW,
					"meets_slo", c.MeetsSLO, "candidates", len(plan.Candidates))
			}
		}
	}
	return lines
}

// TestModeledNumbersPinned pins the modeled numbers bit for bit, so a
// refactor of the queueing model is seen to move none of them.
// `go test ./internal/experiments -update` rewrites testdata/pins.txt
// after a deliberate change to the model.
func TestModeledNumbersPinned(t *testing.T) {
	got := modeledPins()
	golden := filepath.Join("testdata", "pins.txt")
	if *update {
		if err := os.WriteFile(golden, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if len(want) != len(got) {
		t.Fatalf("pinned %d cases, got %d", len(want), len(got))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Errorf("pin moved:\n want %s\n  got %s", want[i], got[i])
		}
	}
}
