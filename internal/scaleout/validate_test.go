package scaleout

import (
	"testing"

	"harvest/internal/hw"
	"harvest/internal/models"
)

// TestValidateSimMatchesRealBelowSaturation is the acceptance check
// for the scale-out model: at a below-saturation operating point the
// queueing simulation must predict the live router-fronted
// tier's throughput within 15%.
func TestValidateSimMatchesRealBelowSaturation(t *testing.T) {
	if testing.Short() {
		t.Skip("spins a live multi-replica tier")
	}
	// The race detector multiplies the fixed per-request HTTP overhead;
	// compress time less under it so the overhead stays small relative
	// to the (compressed) horizon.
	timeScale := 0.05 // 6 simulated seconds in 0.3 s of wall clock
	if raceEnabled {
		timeScale = 0.5
	}
	res, err := Validate(ValidateConfig{
		Config: Config{
			Platform: hw.A100(), Model: models.NameViTBase,
			Replicas: 2, Batch: 64,
			// ~20% utilization: 20 batches/s offered against ~49
			// batches/s/replica capacity.
			OfferedBatchesPerSec: 20,
			HorizonSeconds:       6,
			Seed:                 11,
		},
		TimeScale: timeScale,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sim.Completed == 0 || res.Real.Completed == 0 {
		t.Fatalf("no completions: sim %d, real %d", res.Sim.Completed, res.Real.Completed)
	}
	if res.ThroughputRelErr > 0.15 {
		t.Errorf("sim-vs-real throughput disagreement %.1f%% (sim %.1f img/s, real %.1f img/s), want <= 15%%",
			res.ThroughputRelErr*100, res.Sim.Throughput, res.Real.Throughput)
	}
	t.Logf("throughput: sim %.1f img/s, real %.1f img/s (rel err %.2f%%)",
		res.Sim.Throughput, res.Real.Throughput, res.ThroughputRelErr*100)
	t.Logf("p99 latency: sim %.2f ms, real %.2f ms (rel err %.2f%%)",
		res.Sim.P99LatencySeconds*1000, res.Real.P99LatencySeconds*1000, res.P99RelErr*100)
}

// TestValidateUsesRouterFailoverSurface: the validation replays
// through the same /v2 surface serve.Client uses, so an invalid
// config must surface as an error, not a hang.
func TestValidateConfigErrors(t *testing.T) {
	if _, err := Validate(ValidateConfig{}); err == nil {
		t.Error("nil platform accepted")
	}
	if _, err := Validate(ValidateConfig{Config: Config{
		Platform: hw.A100(), Model: "ghost", Replicas: 1, OfferedBatchesPerSec: 1,
	}}); err == nil {
		t.Error("unknown model accepted")
	}
}
