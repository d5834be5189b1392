package pipeline

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"harvest/internal/engine"
	"harvest/internal/hw"
	"harvest/internal/models"
	"harvest/internal/serve"
	"harvest/internal/stats"
)

// validateConfig drives one (platform, model, batch, offered-rate)
// operating point through both the queueing simulation (RunReplicas)
// and a live multi-replica serving tier: real harvest-serve backends
// with TimeScale pacing behind a real health-checked Router, all in
// process over loopback HTTP.
type validateConfig struct {
	ReplicaConfig
	// TimeScale compresses real time: replicas really sleep
	// TimeScale * modeled seconds, arrivals are replayed at
	// TimeScale * their simulated offsets, and measured latencies are
	// divided by TimeScale before comparison. Default 0.1 (a 10 s
	// simulated horizon runs in 1 s of wall clock). Values well below
	// ~0.05 start to measure loopback HTTP overhead instead of the
	// modeled system.
	TimeScale float64
}

// validateResult compares the analytic model against the live tier.
type validateResult struct {
	// Sim is the queueing-model prediction for the operating point.
	Sim ReplicaResult
	// Real is the measurement from the live router-fronted tier,
	// rescaled into simulated units (divide latencies by TimeScale)
	// so the two results are directly comparable.
	Real ReplicaResult
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

// validate closes the loop between the scale-out *model* and the
// scale-out *system*: it runs cfg through the simulation, then stands
// up cfg.Replicas real single-model servers behind a Router, replays
// the identical Poisson arrival trace (same seed) against the
// router's HTTP surface, and reports throughput and P99 deltas. Close
// agreement at a below-saturation operating point is what licenses
// using the fast simulation as a predictor for capacity planning of
// the real tier.
func validate(cfg validateConfig) (*validateResult, error) {
	if cfg.TimeScale <= 0 {
		cfg.TimeScale = 0.1
	}
	if cfg.HorizonSeconds <= 0 {
		cfg.HorizonSeconds = 30
	}
	sim, err := RunReplicas(cfg.ReplicaConfig)
	if err != nil {
		return nil, err
	}
	batch := sim.Batch // RunReplicas resolved the auto-batch

	// The identical arrival trace (same seed) the sim consumed.
	trace := poissonArrivals(cfg.OfferedBatchesPerSec, cfg.HorizonSeconds, cfg.Seed)

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
	// Shutdown waits out a connection that never carried a request
	// until it is 5 s old; close the replay's spares before it runs.
	stops = append(stops, client.HTTP.CloseIdleConnections)
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
	for _, arrival := range trace {
		at := time.Duration(arrival * cfg.TimeScale * float64(time.Second))
		wg.Add(1)
		go func(at time.Duration) {
			defer wg.Done()
			time.Sleep(time.Until(start.Add(at)))
			sent := time.Now()
			_, err := client.Infer(ctx, cfg.Model, serve.InferRequestJSON{Items: batch})
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
		}(at)
	}
	wg.Wait()
	if failures > 0 {
		return nil, fmt.Errorf("validate: %d/%d replayed requests failed: %w",
			failures, len(trace), lastErr)
	}

	real := ReplicaResult{
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

	return &validateResult{
		Sim:              sim,
		Real:             real,
		ThroughputRelErr: relErr(real.Throughput, sim.Throughput),
		P99RelErr:        relErr(real.P99LatencySeconds, sim.P99LatencySeconds),
	}, nil
}

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
	res, err := validate(validateConfig{
		ReplicaConfig: ReplicaConfig{
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

// TestValidateConfigErrors: the validation replays through the same
// /v2 surface serve.Client uses, so an invalid config must surface as
// an error, not a hang.
func TestValidateConfigErrors(t *testing.T) {
	if _, err := validate(validateConfig{}); err == nil {
		t.Error("nil platform accepted")
	}
	if _, err := validate(validateConfig{ReplicaConfig: ReplicaConfig{
		Platform: hw.A100(), Model: "ghost", Replicas: 1, OfferedBatchesPerSec: 1,
	}}); err == nil {
		t.Error("unknown model accepted")
	}
}
