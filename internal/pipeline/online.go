package pipeline

import (
	"fmt"
	"math"

	"harvest/internal/engine"
	"harvest/internal/hw"
	"harvest/internal/sim"
	"harvest/internal/stats"
	"harvest/internal/workload"
)

// OnlineConfig describes an open-loop online-inference simulation
// (paper §2.2.1): requests arrive as a Poisson stream, each carrying a
// batch of images that flows through preprocessing and inference.
type OnlineConfig struct {
	Platform *hw.Platform
	Model    string
	// Batch is the images per request (the serving batch size).
	Batch int
	// RatePerSec is the request arrival rate.
	RatePerSec float64
	// HorizonSeconds is the simulated duration (default 30).
	HorizonSeconds float64
	// SLOSeconds is the per-request latency objective for miss-rate
	// accounting (default 16.7ms, the paper's 60 QPS line).
	SLOSeconds float64
	Seed       uint64
}

// OnlineResult summarizes the online simulation.
type OnlineResult struct {
	Requests int
	Served   int
	Offered  float64 // img/s offered
	Goodput  float64 // img/s completed within horizon
	MeanMs   float64
	P95Ms    float64
	P99Ms    float64
	// SLOMissRate is over every request that arrived, served inside
	// the horizon or not; the latency figures are over served ones.
	SLOMissRate float64
}

// meanInputPixels sizes the per-image GPU preprocessing cost of an
// online request.
const meanInputPixels = 256 * 256

// RunOnline simulates the online scenario and returns latency and SLO
// statistics.
func RunOnline(cfg OnlineConfig) (OnlineResult, error) {
	if cfg.Platform == nil {
		return OnlineResult{}, fmt.Errorf("pipeline: nil platform")
	}
	if cfg.Batch <= 0 {
		return OnlineResult{}, fmt.Errorf("pipeline: non-positive batch %d", cfg.Batch)
	}
	if cfg.RatePerSec <= 0 {
		return OnlineResult{}, fmt.Errorf("pipeline: non-positive rate")
	}
	if cfg.HorizonSeconds <= 0 {
		cfg.HorizonSeconds = 30
	}
	if cfg.SLOSeconds <= 0 {
		cfg.SLOSeconds = hw.QPS60LatencyMs / 1000
	}
	st, err := PriceStages(cfg.Platform, cfg.Model, cfg.Batch, meanInputPixels)
	if err != nil {
		return OnlineResult{}, err
	}
	run := runOpenLoop(cfg.RatePerSec, cfg.HorizonSeconds, cfg.SLOSeconds, cfg.Seed, st.Stations()...)
	served := len(run.served)
	res := OnlineResult{
		Requests:    run.requests,
		Served:      served,
		Offered:     cfg.RatePerSec * float64(cfg.Batch),
		SLOMissRate: run.missRate,
	}
	if served > 0 {
		res.Goodput = float64(served*cfg.Batch) / cfg.HorizonSeconds
		res.MeanMs = stats.Mean(run.served) * 1000
		res.P95Ms = stats.Percentile(run.served, 95) * 1000
		res.P99Ms = stats.Percentile(run.served, 99) * 1000
	}
	return res, nil
}

// ReplicaConfig describes data-parallel scale-out of the inference
// backend: the paper's Table 1 nodes carry two GPUs but its evaluation
// uses one, and §3 notes the backend "is prepared for future scale-out
// through different parallelism strategies". Replicated engines behind
// a least-loaded dispatcher take open-loop Poisson batch requests.
type ReplicaConfig struct {
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
	Seed           uint64
}

// dispatchOverheadSeconds models the router/sync cost per batch.
const dispatchOverheadSeconds = 200e-6

// ReplicaResult summarizes a replicated-engine simulation.
type ReplicaResult struct {
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

// RunReplicas simulates cfg.Replicas engine replicas, engine-only,
// under open-loop load.
func RunReplicas(cfg ReplicaConfig) (ReplicaResult, error) {
	if cfg.Platform == nil {
		return ReplicaResult{}, fmt.Errorf("pipeline: nil platform")
	}
	if cfg.Replicas <= 0 {
		return ReplicaResult{}, fmt.Errorf("pipeline: non-positive replicas %d", cfg.Replicas)
	}
	if cfg.OfferedBatchesPerSec <= 0 {
		return ReplicaResult{}, fmt.Errorf("pipeline: non-positive offered rate")
	}
	if cfg.HorizonSeconds <= 0 {
		cfg.HorizonSeconds = 30
	}
	eng, err := engine.New(cfg.Platform, cfg.Model)
	if err != nil {
		return ReplicaResult{}, err
	}
	batch := cfg.Batch
	if batch == 0 {
		batch = eng.MaxBatch(hw.EndToEndMaxBatch)
	}
	st, err := eng.Infer(batch)
	if err != nil {
		return ReplicaResult{}, err
	}
	// One station of R servers with earliest-free assignment is
	// exactly a least-loaded dispatcher over R identical replicas. The
	// replica run has no latency objective, so its miss rate goes unread.
	run := runOpenLoop(cfg.OfferedBatchesPerSec, cfg.HorizonSeconds, 0, cfg.Seed,
		sim.Station{Seconds: st.Seconds + dispatchOverheadSeconds, Servers: cfg.Replicas})
	completed := len(run.served)
	res := ReplicaResult{
		Replicas:         cfg.Replicas,
		Batch:            batch,
		OfferedImgPerSec: cfg.OfferedBatchesPerSec * float64(batch),
		Completed:        completed,
		Utilization:      run.busy / (float64(cfg.Replicas) * cfg.HorizonSeconds),
	}
	if completed > 0 {
		res.Throughput = float64(completed*batch) / cfg.HorizonSeconds
		res.MeanLatencySeconds = stats.Mean(run.served)
		res.P99LatencySeconds = stats.Percentile(run.served, 99)
	}
	return res, nil
}

// openLoop is one open-loop run through a chain of stations.
type openLoop struct {
	requests int
	// served holds the latencies of the requests whose last station
	// ends inside the horizon; work still queued there is backlog, not
	// throughput.
	served []float64
	// missRate is over every request that arrived: the ones the
	// horizon cuts off (the queue's worst) count against the SLO too.
	missRate float64
	// busy is the last station's busy time clipped to the horizon.
	// Counting only jobs that complete inside it would bias
	// utilization low exactly at saturation, where the most work is
	// still in flight when the horizon closes.
	busy float64
}

// runOpenLoop pushes the seeded Poisson trace of rate requests/s over
// horizon seconds through stations and applies the horizon rule, the
// one accounting both RunOnline and RunReplicas report from.
func runOpenLoop(rate, horizon, slo float64, seed uint64, stations ...sim.Station) openLoop {
	arrivals := poissonArrivals(rate, horizon, seed)
	tracker := workload.NewSLOTracker(slo)
	run := openLoop{requests: len(arrivals)}
	for i, sp := range sim.Tandem(arrivals, stations...) {
		last := sp[len(sp)-1]
		if clipped := math.Min(last.End, horizon) - math.Min(last.Start, horizon); clipped > 0 {
			run.busy += clipped
		}
		lat := last.End - arrivals[i]
		tracker.Observe(lat)
		if last.End <= horizon {
			run.served = append(run.served, lat)
		}
	}
	run.missRate = tracker.MissRate()
	return run
}

// poissonArrivals is the seeded Poisson trace of request arrival times
// over the horizon. (The items a request carries do not change its
// times.)
func poissonArrivals(rate, horizon float64, seed uint64) []float64 {
	var times []float64
	workload.NewArrivalStream(stats.NewRNG(seed), workload.ConstantRate(rate),
		rate, horizon, 1).Each(func(a workload.Arrival) bool {
		times = append(times, a.Time)
		return true
	})
	return times
}
