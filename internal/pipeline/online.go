package pipeline

import (
	"fmt"

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
	// MeanInputPixels sizes the per-image GPU preprocessing cost
	// (default 256x256).
	MeanInputPixels float64
	// SLOSeconds is the per-request latency objective for miss-rate
	// accounting (default 16.7ms, the paper's 60 QPS line).
	SLOSeconds float64
	Seed       uint64
}

// OnlineResult summarizes the online simulation.
type OnlineResult struct {
	Requests    int
	Served      int
	Offered     float64 // img/s offered
	Goodput     float64 // img/s completed within horizon
	MeanMs      float64
	P95Ms       float64
	P99Ms       float64
	SLOMissRate float64
}

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
	if cfg.MeanInputPixels <= 0 {
		cfg.MeanInputPixels = 256 * 256
	}
	if cfg.SLOSeconds <= 0 {
		cfg.SLOSeconds = hw.QPS60LatencyMs / 1000
	}
	eng, err := engine.New(cfg.Platform, cfg.Model)
	if err != nil {
		return OnlineResult{}, err
	}
	eng.Pipeline = true
	st, err := eng.Infer(cfg.Batch)
	if err != nil {
		return OnlineResult{}, err
	}
	outRes := eng.Entry.Spec.InputSize
	inPixels := make([]int, cfg.Batch)
	for i := range inPixels {
		inPixels[i] = int(cfg.MeanInputPixels)
	}
	preprocSec := hw.GPUPreprocBatchSeconds(cfg.Platform, inPixels, outRes*outRes)
	transferSec := eng.Perf.TransferSeconds(int64(cfg.Batch) * int64(3*outRes*outRes) * 4)

	s := sim.New()
	pre := sim.NewResource(s, "preprocess", 1)
	cp := sim.NewResource(s, "copy", 1)
	gpu := sim.NewResource(s, "engine", 1)
	arrivals := workload.NewArrivalStream(stats.NewRNG(cfg.Seed), workload.ConstantRate(cfg.RatePerSec),
		cfg.RatePerSec, cfg.HorizonSeconds, cfg.Batch)
	slo := workload.NewSLOTracker(cfg.SLOSeconds)

	var latencies []float64
	requests, served := 0, 0
	arrivals.Each(func(a workload.Arrival) bool {
		requests++
		arrival := a.Time
		s.Schedule(arrival, func() {
			pre.Submit(preprocSec, func(_, _ float64) {
				cp.Submit(transferSec, func(_, _ float64) {
					gpu.Submit(st.Seconds, func(_, end float64) {
						if end > cfg.HorizonSeconds {
							return
						}
						lat := end - arrival
						latencies = append(latencies, lat)
						slo.Observe(lat)
						served++
					})
				})
			})
		})
		return true
	})
	s.Run()

	res := OnlineResult{
		Requests: requests,
		Served:   served,
		Offered:  cfg.RatePerSec * float64(cfg.Batch),
	}
	if served > 0 {
		res.Goodput = float64(served*cfg.Batch) / cfg.HorizonSeconds
		res.MeanMs = stats.Mean(latencies) * 1000
		res.P95Ms = stats.Percentile(latencies, 95) * 1000
		res.P99Ms = stats.Percentile(latencies, 99) * 1000
		res.SLOMissRate = slo.MissRate()
	}
	return res, nil
}
