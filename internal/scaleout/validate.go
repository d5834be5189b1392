package scaleout

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"harvest/internal/engine"
	"harvest/internal/serve"
	"harvest/internal/stats"
	"harvest/internal/workload"
)

// ValidateConfig drives one (platform, model, batch, offered-rate)
// operating point through both the discrete-event simulation (Run) and
// a live multi-replica serving tier: real harvest-serve backends with
// TimeScale pacing behind a real health-checked Router, all in
// process over loopback HTTP.
type ValidateConfig struct {
	Config
	// TimeScale compresses real time: replicas really sleep
	// TimeScale * modeled seconds, arrivals are replayed at
	// TimeScale * their simulated offsets, and measured latencies are
	// divided by TimeScale before comparison. Default 0.1 (a 10 s
	// simulated horizon runs in 1 s of wall clock). Values well below
	// ~0.05 start to measure loopback HTTP overhead instead of the
	// modeled system.
	TimeScale float64
}

// ValidateResult compares the analytic model against the live tier.
type ValidateResult struct {
	// Sim is the discrete-event prediction for the operating point.
	Sim Result
	// Real is the measurement from the live router-fronted tier,
	// rescaled into simulated units (divide latencies by TimeScale)
	// so the two Results are directly comparable.
	Real Result
	// ThroughputRelErr is |real-sim| / sim for throughput.
	ThroughputRelErr float64
	// P99RelErr is |real-sim| / sim for P99 latency.
	P99RelErr float64
}

func relErr(real, sim float64) float64 {
	if sim == 0 {
		if real == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(real-sim) / sim
}

// Validate closes the loop between the scale-out *model* and the
// scale-out *system*: it runs cfg through the simulation, then stands
// up cfg.Replicas real single-model servers behind a Router, replays
// the identical Poisson arrival trace (same seed) against the
// router's HTTP surface, and reports throughput and P99 deltas. Close
// agreement at a below-saturation operating point is what licenses
// using the fast simulation as a predictor for capacity planning of
// the real tier.
func Validate(cfg ValidateConfig) (*ValidateResult, error) {
	if cfg.TimeScale <= 0 {
		cfg.TimeScale = 0.1
	}
	if cfg.HorizonSeconds <= 0 {
		cfg.HorizonSeconds = 30
	}
	sim, err := Run(cfg.Config)
	if err != nil {
		return nil, err
	}
	batch := sim.Batch // Run resolved the auto-batch

	// The identical arrival trace (same seed) the sim consumed.
	var trace []workload.Arrival
	workload.NewArrivalStream(stats.NewRNG(cfg.Seed), workload.ConstantRate(cfg.OfferedBatchesPerSec),
		cfg.OfferedBatchesPerSec, cfg.HorizonSeconds, batch).Each(func(a workload.Arrival) bool {
		trace = append(trace, a)
		return true
	})

	// The live tier: one single-model server per simulated replica.
	// The model configs are hand-set (not a core deployment): this
	// validates the queueing model, not a deployment shape.
	var stops []func()
	defer func() {
		for i := len(stops) - 1; i >= 0; i-- {
			stops[i]()
		}
	}()
	var urls []string
	for i := 0; i < cfg.Replicas; i++ {
		eng, err := engine.New(cfg.Platform, cfg.Model)
		if err != nil {
			return nil, err
		}
		srv := serve.NewServer()
		stops = append(stops, srv.Close)
		if err := srv.Register(serve.ModelConfig{
			Name:     cfg.Model,
			Engine:   eng,
			MaxBatch: batch,
			// The sim models whole batches as single jobs; a zero
			// batching window makes each replayed request dispatch as
			// its own batch the same way.
			QueueDelay: 0,
			Instances:  1,
			TimeScale:  cfg.TimeScale,
			// The sim queues without bound; match it (shedding would
			// invalidate the comparison).
			MaxQueueDepth: len(trace) + 1,
		}); err != nil {
			return nil, err
		}
		ep, err := serve.ListenLoopback(srv.Handler())
		if err != nil {
			return nil, err
		}
		stops = append(stops, ep.Shutdown)
		urls = append(urls, ep.URL)
	}
	router, err := serve.NewRouter(urls, serve.RouterConfig{
		Pool: serve.PoolConfig{
			// Refresh load snapshots well inside the replay so
			// queue-depth-aware dispatch has live data.
			ProbeInterval: 20 * time.Millisecond,
		},
	})
	if err != nil {
		return nil, err
	}
	stops = append(stops, router.Close)
	routerEp, err := serve.ListenLoopback(router.Handler())
	if err != nil {
		return nil, err
	}
	stops = append(stops, routerEp.Shutdown)
	client := serve.NewClient(routerEp.URL)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := client.WaitReady(ctx); err != nil {
		return nil, err
	}

	// Replay the trace in compressed real time.
	var (
		mu        sync.Mutex
		latencies []float64
		completed int
		failures  int
		lastErr   error
	)
	start := time.Now()
	horizonReal := time.Duration(cfg.HorizonSeconds * cfg.TimeScale * float64(time.Second))
	var wg sync.WaitGroup
	for _, a := range trace {
		at := time.Duration(a.Time * cfg.TimeScale * float64(time.Second))
		wg.Add(1)
		go func(at time.Duration, items int) {
			defer wg.Done()
			time.Sleep(time.Until(start.Add(at)))
			sent := time.Now()
			_, err := client.Infer(ctx, cfg.Model, serve.InferRequestJSON{Items: items})
			done := time.Now()
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				failures++
				lastErr = err
				return
			}
			// Same horizon rule as the sim: completions after the
			// (compressed) horizon are backlog, not throughput.
			if done.Sub(start) > horizonReal {
				return
			}
			completed++
			latencies = append(latencies, done.Sub(sent).Seconds()/cfg.TimeScale)
		}(at, a.Items)
	}
	wg.Wait()
	if failures > 0 {
		return nil, fmt.Errorf("scaleout: validate: %d/%d replayed requests failed: %w",
			failures, len(trace), lastErr)
	}

	real := Result{
		Replicas:         cfg.Replicas,
		Batch:            batch,
		OfferedImgPerSec: cfg.OfferedBatchesPerSec * float64(batch),
		Completed:        completed,
	}
	if completed > 0 {
		real.Throughput = float64(completed*batch) / cfg.HorizonSeconds
		real.MeanLatencySeconds = stats.Mean(latencies)
		real.P99LatencySeconds = stats.Percentile(latencies, 99)
	}
	// Estimated, not measured: the replicas' modeled service time over
	// replica-seconds, the same accounting the sim uses.
	eng, err := engine.New(cfg.Platform, cfg.Model)
	if err == nil {
		if st, ierr := eng.Infer(batch); ierr == nil {
			real.Utilization = float64(completed) * st.Seconds /
				(float64(cfg.Replicas) * cfg.HorizonSeconds)
		}
	}

	return &ValidateResult{
		Sim:              sim,
		Real:             real,
		ThroughputRelErr: relErr(real.Throughput, sim.Throughput),
		P99RelErr:        relErr(real.P99LatencySeconds, sim.P99LatencySeconds),
	}, nil
}
