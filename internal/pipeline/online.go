package pipeline

import (
	"fmt"

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
	st, err := PriceStages(cfg.Platform, cfg.Model, cfg.Batch, int(cfg.MeanInputPixels))
	if err != nil {
		return OnlineResult{}, err
	}
	var arrivals []float64
	workload.NewArrivalStream(stats.NewRNG(cfg.Seed), workload.ConstantRate(cfg.RatePerSec),
		cfg.RatePerSec, cfg.HorizonSeconds, cfg.Batch).Each(func(a workload.Arrival) bool {
		arrivals = append(arrivals, a.Time)
		return true
	})
	slo := workload.NewSLOTracker(cfg.SLOSeconds)
	var latencies []float64
	for i, sp := range sim.Tandem(arrivals, st.Stations()...) {
		lat := sp[2].End - arrivals[i]
		// Every request counts against the SLO, the ones the horizon
		// cuts off (the queue's worst) too; only those served inside
		// it count as goodput.
		slo.Observe(lat)
		if sp[2].End <= cfg.HorizonSeconds {
			latencies = append(latencies, lat)
		}
	}
	served := len(latencies)

	res := OnlineResult{
		Requests:    len(arrivals),
		Served:      served,
		Offered:     cfg.RatePerSec * float64(cfg.Batch),
		SLOMissRate: slo.MissRate(),
	}
	if served > 0 {
		res.Goodput = float64(served*cfg.Batch) / cfg.HorizonSeconds
		res.MeanMs = stats.Mean(latencies) * 1000
		res.P95Ms = stats.Percentile(latencies, 95) * 1000
		res.P99Ms = stats.Percentile(latencies, 99) * 1000
	}
	return res, nil
}
