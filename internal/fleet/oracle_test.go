package fleet

import (
	"testing"
	"time"

	"harvest/internal/hw"
	"harvest/internal/models"
)

// BenchmarkPlanCapacity times one capacity plan of the kind the
// autoscaler asks for every tick: ViT_Base on A100 or Jetson at
// 400 req/s within a 250 ms SLO, which sweeps seven candidate fleets
// through the queueing model.
func BenchmarkPlanCapacity(b *testing.B) {
	cfg := OracleConfig{Model: models.NameViTBase, Platforms: []string{hw.KeyA100, hw.KeyJetson}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := PlanCapacity(cfg, 400, 250*time.Millisecond); err != nil {
			b.Fatal(err)
		}
	}
}
