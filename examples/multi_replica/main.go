// Multi-replica serving: the scale-out tier of the paper's §3 backend
// ("prepared for future scale-out through different parallelism
// strategies"), live. Three single-model replicas run behind a
// health-checked replica-pool router; a burst of traffic is driven
// through the router's /v2 surface while one replica is killed
// mid-run — every accepted request still completes, the dead replica
// is ejected by its circuit breaker, and the router's aggregated
// metrics show the failovers. Then scaleout.Validate closes the loop:
// the same operating point is run through the discrete-event
// simulation and a live router-fronted tier, and the throughput/P99
// deltas are printed.
package main

import (
	"context"
	"fmt"
	"log"
	"sync"
	"sync/atomic"
	"time"

	"harvest/internal/core"
	"harvest/internal/hw"
	"harvest/internal/models"
	"harvest/internal/scaleout"
	"harvest/internal/serve"
)

const model = models.NameViTTiny

func main() {
	log.SetFlags(0)
	platform := hw.A100()

	fmt.Println("=== replica-pool router: failover under load ===")
	tier, err := core.StartTier(core.DeploymentConfig{
		Platform:   hw.KeyA100,
		Models:     []string{model},
		QueueDelay: 500 * time.Microsecond,
		TimeScale:  2, // really sleep 2x modeled latency: requests overlap the kill
	}, 3)
	if err != nil {
		log.Fatal(err)
	}
	for i, url := range tier.ReplicaURLs {
		fmt.Printf("replica r%d at %s\n", i, url)
	}
	router := tier.Router

	const total = 300
	var wg sync.WaitGroup
	var ok, failed atomic.Int64
	for i := 0; i < total; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if _, err := router.Infer(ctx, model, serve.InferRequestJSON{Items: 2}); err != nil {
				failed.Add(1)
				return
			}
			ok.Add(1)
		}()
		time.Sleep(300 * time.Microsecond)
		if i == total/3 {
			fmt.Printf("killing replica r0 with ~%d requests in flight...\n", total/3)
			tier.Replicas[0].Kill()
		}
	}
	wg.Wait()

	met := router.Metrics(context.Background())
	fmt.Printf("served %d/%d requests, %d failed\n", ok.Load(), total, failed.Load())
	fmt.Printf("router: failovers=%d spills=%d healthy=%d/%d, p50/p99 = %.2f/%.2f ms\n",
		met.Router.Failovers, met.Router.Spills,
		met.Router.HealthyReplicas, len(met.Router.Replicas),
		met.Router.LatencyMs.P50Ms, met.Router.LatencyMs.P99Ms)
	for _, rs := range met.Router.Replicas {
		fmt.Printf("  %s healthy=%v ejections=%d\n", rs.Name, rs.Healthy, rs.Ejections)
	}
	tier.Close()

	fmt.Println()
	fmt.Println("=== scaleout.Validate: analytic model vs live tier ===")
	res, err := scaleout.Validate(scaleout.ValidateConfig{
		Config: scaleout.Config{
			Platform: platform, Model: models.NameViTBase,
			Replicas: 2, Batch: 64,
			OfferedBatchesPerSec: 20, // ~20% utilization, below saturation
			HorizonSeconds:       6,
			Seed:                 11,
		},
		TimeScale: 0.3,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("operating point: %s %s, %d replicas, batch %d, %.0f batches/s offered\n",
		platform.Name, models.NameViTBase, res.Sim.Replicas, res.Sim.Batch, 20.0)
	fmt.Printf("throughput: sim %.1f img/s vs real %.1f img/s (rel err %.2f%%)\n",
		res.Sim.Throughput, res.Real.Throughput, res.ThroughputRelErr*100)
	fmt.Printf("p99 latency: sim %.2f ms vs real %.2f ms (rel err %.1f%%; real includes loopback HTTP overhead)\n",
		res.Sim.P99LatencySeconds*1000, res.Real.P99LatencySeconds*1000, res.P99RelErr*100)
	if res.ThroughputRelErr <= 0.15 {
		fmt.Println("within 15%: the simulation is a usable capacity predictor for the real tier")
	}
}
