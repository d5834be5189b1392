// Package scaleout models data-parallel scale-out of the inference
// backend across multiple GPUs — the paper's Table 1 nodes carry two
// GPUs but its evaluation uses one, and §3 notes the backend "is
// prepared for future scale-out through different parallelism
// strategies". Replicated engines behind a least-loaded dispatcher are
// simulated under open-loop Poisson load as one queue of R servers
// (internal/sim), yielding throughput and queueing-latency distributions.
//
// Validate closes the loop between the model and the real system: it
// replays the same seeded trace against a live router-fronted tier of
// harvest-serve replicas and reports sim-vs-real throughput/P99
// deltas (recorded in EXPERIMENTS.md).
package scaleout

import (
	"fmt"
	"math"

	"harvest/internal/engine"
	"harvest/internal/hw"
	"harvest/internal/sim"
	"harvest/internal/stats"
	"harvest/internal/workload"
)

// Config describes one scale-out simulation.
type Config struct {
	Platform *hw.Platform
	Model    string
	// Replicas is the number of data-parallel engine replicas (one per
	// GPU). Each replica holds its own copy of the weights.
	Replicas int
	// Batch is the fused batch size each replica executes. 0 selects
	// the replica's largest engine-only batch capped at 64 (scale-out
	// replicas run without co-located GPU preprocessing).
	Batch int
	// OfferedBatchesPerSec is the open-loop arrival rate of batch
	// requests.
	OfferedBatchesPerSec float64
	// HorizonSeconds is the simulated duration (default 30).
	HorizonSeconds float64
	// DispatchOverheadSeconds models the router/sync cost per batch
	// (default 200us).
	DispatchOverheadSeconds float64
	Seed                    uint64
}

// Result summarizes the simulation.
type Result struct {
	Replicas         int
	Batch            int
	OfferedImgPerSec float64
	// Throughput is completed images / horizon.
	Throughput float64
	// MeanLatencySeconds / P99LatencySeconds are request latencies
	// including queueing.
	MeanLatencySeconds float64
	P99LatencySeconds  float64
	// Utilization is replica busy time *within the horizon* divided by
	// (replicas * horizon): a batch still executing when the horizon
	// closes contributes the busy time it accrued inside it.
	Utilization float64
	Completed   int
}

// Run simulates the configuration.
func Run(cfg Config) (Result, error) {
	if cfg.Platform == nil {
		return Result{}, fmt.Errorf("scaleout: nil platform")
	}
	if cfg.Replicas <= 0 {
		return Result{}, fmt.Errorf("scaleout: non-positive replicas %d", cfg.Replicas)
	}
	if cfg.OfferedBatchesPerSec <= 0 {
		return Result{}, fmt.Errorf("scaleout: non-positive offered rate")
	}
	if cfg.HorizonSeconds <= 0 {
		cfg.HorizonSeconds = 30
	}
	if cfg.DispatchOverheadSeconds == 0 {
		cfg.DispatchOverheadSeconds = 200e-6
	}
	eng, err := engine.New(cfg.Platform, cfg.Model)
	if err != nil {
		return Result{}, err
	}
	batch := cfg.Batch
	if batch == 0 {
		batch = eng.MaxBatch(hw.EndToEndMaxBatch)
	}
	st, err := eng.Infer(batch)
	if err != nil {
		return Result{}, err
	}
	serviceTime := st.Seconds + cfg.DispatchOverheadSeconds

	// One station of R servers with earliest-free assignment is
	// exactly a least-loaded dispatcher over R identical replicas.
	times := arrivalTimes(cfg)
	spans := sim.Tandem(times, sim.Station{Seconds: serviceTime, Servers: cfg.Replicas})

	var latencies []float64
	busyInHorizon := 0.0
	for i, sp := range spans {
		// Busy time is clipped to the horizon: counting only batches
		// that *complete* inside it would bias utilization low exactly
		// at saturation, where the most work is still in flight when
		// the horizon closes.
		if clipped := math.Min(sp[0].End, cfg.HorizonSeconds) - math.Min(sp[0].Start, cfg.HorizonSeconds); clipped > 0 {
			busyInHorizon += clipped
		}
		// Only completions inside the measurement horizon count; work
		// still queued at the horizon is backlog, not throughput.
		if sp[0].End <= cfg.HorizonSeconds {
			latencies = append(latencies, sp[0].End-times[i])
		}
	}
	completed := len(latencies)

	res := Result{
		Replicas:         cfg.Replicas,
		Batch:            batch,
		OfferedImgPerSec: cfg.OfferedBatchesPerSec * float64(batch),
		Completed:        completed,
		Utilization:      busyInHorizon / (float64(cfg.Replicas) * cfg.HorizonSeconds),
	}
	if completed > 0 {
		res.Throughput = float64(completed*batch) / cfg.HorizonSeconds
		res.MeanLatencySeconds = stats.Mean(latencies)
		res.P99LatencySeconds = stats.Percentile(latencies, 99)
	}
	return res, nil
}

// arrivalTimes is the seeded Poisson trace of batch requests: the one
// Run simulates and Validate replays against the live tier. (The
// stream's items per request do not change its times.)
func arrivalTimes(cfg Config) []float64 {
	var times []float64
	workload.NewArrivalStream(stats.NewRNG(cfg.Seed), workload.ConstantRate(cfg.OfferedBatchesPerSec),
		cfg.OfferedBatchesPerSec, cfg.HorizonSeconds, 1).Each(func(a workload.Arrival) bool {
		times = append(times, a.Time)
		return true
	})
	return times
}
