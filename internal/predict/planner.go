// Package predict implements the paper's stated future work (§5):
// "comprehensive quantitative models for scalable performance
// prediction and deployment toolkits that enable practitioners to
// establish performance expectations before deployment."
//
// The quantitative model is hw.PerfModel, the one batch-latency law
// the engines run on; Plan walks each candidate engine's
// memory-feasible batch sweep and picks the batch that meets the
// requirements under an objective.
package predict

import (
	"fmt"
	"sort"

	"harvest/internal/energy"
	"harvest/internal/engine"
	"harvest/internal/hw"
	"harvest/internal/models"
)

// Objective selects what the planner optimizes once requirements are
// met.
type Objective int

// Planner objectives.
const (
	// MaxThroughput picks the highest-throughput feasible config
	// (cloud/offline campaigns).
	MaxThroughput Objective = iota
	// MinLatency picks the lowest-latency feasible config (real-time).
	MinLatency
	// MaxImagesPerJoule picks the most energy-efficient feasible
	// config (battery-powered edge).
	MaxImagesPerJoule
)

// String names the objective.
func (o Objective) String() string {
	switch o {
	case MaxThroughput:
		return "max-throughput"
	case MinLatency:
		return "min-latency"
	case MaxImagesPerJoule:
		return "max-images-per-joule"
	}
	return fmt.Sprintf("Objective(%d)", int(o))
}

// Requirements describe a target deployment before it exists.
type Requirements struct {
	// SLOSeconds bounds per-batch latency (0 = unconstrained).
	SLOSeconds float64
	// MinImgPerSec bounds throughput (0 = unconstrained).
	MinImgPerSec float64
	// Pipeline selects the co-located-preprocessing memory budget
	// (the end-to-end deployment shape).
	Pipeline  bool
	Objective Objective
}

// Option is one feasible deployment configuration with its predictions.
type Option struct {
	Platform string
	Model    string
	Batch    int

	PredLatencySeconds float64
	PredImgPerSec      float64
	ImagesPerJoule     float64
	MemoryBytes        int64
}

// Plan evaluates every (platform, model) pair by running its engine
// over the platform's batch sweep up to the memory limit and selecting
// the batch that meets the requirements. Options are returned
// best-first under the requirement's objective; an error is returned
// only when no configuration is feasible.
func Plan(req Requirements, platforms []*hw.Platform, modelNames []string) ([]Option, error) {
	if len(platforms) == 0 {
		platforms = hw.FigureOrder()
	}
	if len(modelNames) == 0 {
		modelNames = models.Names()
	}
	var opts []Option
	for _, p := range platforms {
		for _, name := range modelNames {
			eng, err := engine.New(p, name)
			if err != nil {
				return nil, err
			}
			eng.Pipeline = req.Pipeline
			var feasible []engine.InferStats
			for _, b := range hw.BatchSweep(p.Name) {
				st, err := eng.Infer(b)
				if err != nil {
					break // OOM: larger batches also fail
				}
				feasible = append(feasible, st)
			}
			st := chooseBatch(req, feasible)
			if st.Batch == 0 {
				continue
			}
			ipj, err := energy.New(p).ImagesPerJoule(st.ImgPerSec, st.MFU)
			if err != nil {
				continue
			}
			opts = append(opts, Option{
				Platform:           p.Name,
				Model:              name,
				Batch:              st.Batch,
				PredLatencySeconds: st.Seconds,
				PredImgPerSec:      st.ImgPerSec,
				ImagesPerJoule:     ipj,
				MemoryBytes:        eng.Perf.MemoryBytes(st.Batch, req.Pipeline),
			})
		}
	}
	if len(opts) == 0 {
		return nil, fmt.Errorf("predict: no feasible configuration for %+v", req)
	}
	sort.SliceStable(opts, func(i, j int) bool {
		switch req.Objective {
		case MinLatency:
			return opts[i].PredLatencySeconds < opts[j].PredLatencySeconds
		case MaxImagesPerJoule:
			return opts[i].ImagesPerJoule > opts[j].ImagesPerJoule
		default:
			return opts[i].PredImgPerSec > opts[j].PredImgPerSec
		}
	})
	return opts, nil
}

// chooseBatch picks, from the feasible batches (ascending), the one
// meeting the requirements under the objective: the smallest for
// MinLatency, otherwise the largest (throughput grows with batch). The
// zero InferStats (Batch 0) means none does.
func chooseBatch(req Requirements, feasible []engine.InferStats) engine.InferStats {
	var best engine.InferStats
	for _, st := range feasible {
		if req.SLOSeconds > 0 && st.Seconds > req.SLOSeconds {
			continue
		}
		if req.MinImgPerSec > 0 && st.ImgPerSec < req.MinImgPerSec {
			continue
		}
		if req.Objective == MinLatency {
			return st
		}
		best = st
	}
	return best
}
