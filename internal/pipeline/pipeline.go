// Package pipeline composes the full HARVEST inference path — dataset
// read, dataset-specific preprocessing, model-specific preprocessing,
// host-device transfer and engine inference — and evaluates its
// end-to-end latency and throughput as a tandem queue (internal/sim),
// including the preprocessing/inference overlap that drives the
// paper's Fig. 8 results.
package pipeline

import (
	"fmt"

	"harvest/internal/datasets"
	"harvest/internal/engine"
	"harvest/internal/hw"
	"harvest/internal/sim"
)

// Config selects one (platform, model, dataset) end-to-end combination.
type Config struct {
	Platform *hw.Platform
	Model    string
	Dataset  datasets.Spec

	// Batch is the request batch size; 0 selects the largest batch
	// before OOM capped at hw.EndToEndMaxBatch, the Fig. 8 policy.
	Batch int
	// Batches is how many batches to push through (default 32).
	Batches int
	// Overlap enables pipelined execution of preprocessing, transfer
	// and inference on their respective resources (default behaviour of
	// the HARVEST backend); when false, stages run strictly serially.
	Overlap bool
	// CPUPreproc switches preprocessing from the GPU (DALI-analogue)
	// engine to the modeled single-thread CPU path.
	CPUPreproc bool
	// HostCPUSecondsPerImage must be provided when CPUPreproc is set:
	// the measured single-thread host seconds per image for this
	// dataset (from a real internal/preprocess run).
	HostCPUSecondsPerImage float64
}

// Stages is the cost of one batch at each pipeline stage.
type Stages struct {
	Batch int
	// Per-batch stage costs (seconds).
	PreprocSeconds  float64
	TransferSeconds float64
	InferSeconds    float64
}

// PriceStages prices one batch of images of inPixels input pixels each
// for the model on platform p: GPU preprocessing (the per-image costs
// plus the per-batch fixed cost), the host-device copy of the
// normalized fp32 batch, and engine inference with preprocessing
// co-located. Batch 0 selects the largest batch before OOM capped at
// hw.EndToEndMaxBatch, the Fig. 8 policy.
func PriceStages(p *hw.Platform, model string, batch, inPixels int) (Stages, error) {
	eng, err := engine.New(p, model)
	if err != nil {
		return Stages{}, err
	}
	eng.Pipeline = true
	if batch == 0 {
		batch = eng.MaxBatch(hw.EndToEndMaxBatch)
		if batch == 0 {
			return Stages{}, fmt.Errorf("pipeline: %s does not fit on %s with co-located preprocessing",
				model, p.Name)
		}
	}
	inferStats, err := eng.Infer(batch)
	if err != nil {
		return Stages{}, err
	}
	outRes := eng.Entry.Spec.InputSize
	inPx := make([]int, batch)
	for i := range inPx {
		inPx[i] = inPixels
	}
	return Stages{
		Batch:           batch,
		PreprocSeconds:  hw.GPUPreprocBatchSeconds(p, inPx, outRes*outRes),
		TransferSeconds: eng.Perf.TransferSeconds(int64(batch) * int64(3*outRes*outRes) * 4),
		InferSeconds:    inferStats.Seconds,
	}, nil
}

// Stations is the batch's path through the pipeline for sim.Tandem:
// preprocessing, copy and engine, each its own single-server resource.
func (st Stages) Stations() []sim.Station {
	return []sim.Station{{Seconds: st.PreprocSeconds, Servers: 1},
		{Seconds: st.TransferSeconds, Servers: 1}, {Seconds: st.InferSeconds, Servers: 1}}
}

// Result reports the end-to-end behaviour of the pipeline.
type Result struct {
	Stages
	// LatencyMs is the mean per-batch end-to-end latency (preprocess
	// start to inference completion).
	LatencyMs float64
	// Throughput is total images divided by makespan.
	Throughput float64
	// Bottleneck names the stage with the largest per-batch cost.
	Bottleneck string
	// EngineBoundThroughput is the inference-only throughput at this
	// batch size — what Fig. 8 calls the model engine's upper bound.
	EngineBoundThroughput float64
}

// Run simulates cfg.Batches batches through the pipeline and returns
// its steady behaviour.
func Run(cfg Config) (Result, error) {
	if cfg.Platform == nil {
		return Result{}, fmt.Errorf("pipeline: nil platform")
	}
	if cfg.Batches <= 0 {
		cfg.Batches = 32
	}
	st, err := PriceStages(cfg.Platform, cfg.Model, cfg.Batch, int(cfg.Dataset.MeanPixels(256, 1)))
	if err != nil {
		return Result{}, err
	}
	if cfg.CPUPreproc {
		if cfg.HostCPUSecondsPerImage <= 0 {
			return Result{}, fmt.Errorf("pipeline: CPUPreproc requires HostCPUSecondsPerImage")
		}
		st.PreprocSeconds = hw.ScaleCPUSeconds(cfg.Platform, cfg.HostCPUSecondsPerImage) * float64(st.Batch)
	}

	res := Result{
		Stages:                st,
		EngineBoundThroughput: float64(st.Batch) / st.InferSeconds,
	}
	switch {
	case st.PreprocSeconds >= st.InferSeconds && st.PreprocSeconds >= st.TransferSeconds:
		res.Bottleneck = "preprocess"
	case st.InferSeconds >= st.TransferSeconds:
		res.Bottleneck = "inference"
	default:
		res.Bottleneck = "transfer"
	}

	// Latency is measured from the batch's actual preprocessing start
	// (service latency including pipeline backpressure, excluding
	// offline queueing of the whole input set).
	var sum, makespan float64
	for _, sp := range timeline(st, cfg.Batches, cfg.Overlap) {
		sum += sp[2].End - sp[0].Start
		makespan = max(makespan, sp[2].End)
	}
	res.LatencyMs = sum / float64(cfg.Batches) * 1000
	if makespan > 0 {
		res.Throughput = float64(st.Batch*cfg.Batches) / makespan
	}
	return res, nil
}

// timeline is each batch's span at preprocessing, copy and engine.
// Under overlap all batches are available up front (the offline
// scenario) and the resources pipeline them; otherwise batch i+1
// starts when batch i finishes.
func timeline(st Stages, batches int, overlap bool) [][]sim.Span {
	arrivals := make([]float64, batches)
	if !overlap {
		for i := range arrivals {
			arrivals[i] = float64(i) * (st.PreprocSeconds + st.TransferSeconds + st.InferSeconds)
		}
	}
	return sim.Tandem(arrivals, st.Stations()...)
}
