package pipeline

import (
	"testing"

	"harvest/internal/datasets"
	"harvest/internal/hw"
	"harvest/internal/models"
)

// TestPipelineTraceTimeline checks the batches' spans at preprocessing,
// copy and engine: each stage is a serial resource, each batch moves
// through the stages in order, and under overlap the stages overlap
// across batches.
func TestPipelineTraceTimeline(t *testing.T) {
	spec := evalSpec(t, datasets.SlugPlantVillage)
	st, err := PriceStages(hw.A100(), models.NameViTBase, 0, int(spec.MeanPixels(256, 1)))
	if err != nil {
		t.Fatal(err)
	}
	spans := timeline(st, 6, true)
	if len(spans) != 6 {
		t.Fatalf("timeline has %d batches, want 6", len(spans))
	}
	for i, sp := range spans {
		for s := range sp {
			if s > 0 && sp[s].Start < sp[s-1].End {
				t.Errorf("batch %d starts stage %d at %v before leaving stage %d at %v",
					i, s, sp[s].Start, s-1, sp[s-1].End)
			}
			if i > 0 && sp[s].Start < spans[i-1][s].End {
				t.Errorf("stage %d serves batches %d and %d at once", s, i-1, i)
			}
		}
	}
	// Batch 1's preprocessing must start before batch 0's inference
	// completes under overlap — otherwise the pipeline is serial.
	if spans[1][0].Start >= spans[0][2].End {
		t.Error("no cross-stage overlap in the timeline")
	}
}
