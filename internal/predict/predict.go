// Package predict implements the paper's stated future work (§5):
// "comprehensive quantitative models for scalable performance
// prediction and deployment toolkits that enable practitioners to
// establish performance expectations before deployment."
//
// The method mirrors what a practitioner can actually do: run a small
// number of profiling batches on the target (here, against the
// calibrated engines), fit the two-parameter latency law
//
//	latency(b) = base + b / satThroughput
//
// (the linear law the paper's Fig. 6 exhibits past the underutilized
// region), and predict latency/throughput/feasible batch sizes for the
// whole operating range without running it.
package predict

import (
	"fmt"
	"math"
)

// Sample is one profiling measurement.
type Sample struct {
	Batch   int
	Seconds float64
}

// Predictor is a fitted latency/throughput model for one
// (platform, model) deployment.
type Predictor struct {
	// Base is the fixed per-batch cost in seconds (the underutilized
	// region's intercept).
	Base float64
	// SecondsPerImage is the marginal per-image cost; its inverse is
	// the saturated throughput.
	SecondsPerImage float64
}

// Fit least-squares fits the latency law to profiling samples. At
// least two samples with distinct batch sizes are required.
func Fit(samples []Sample) (*Predictor, error) {
	if len(samples) < 2 {
		return nil, fmt.Errorf("predict: need >= 2 profiling samples, got %d", len(samples))
	}
	var sx, sy, sxx, sxy float64
	n := float64(len(samples))
	for _, s := range samples {
		if s.Batch <= 0 || s.Seconds <= 0 {
			return nil, fmt.Errorf("predict: invalid sample %+v", s)
		}
		x := float64(s.Batch)
		sx += x
		sy += s.Seconds
		sxx += x * x
		sxy += x * s.Seconds
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return nil, fmt.Errorf("predict: samples share one batch size; cannot fit slope")
	}
	slope := (n*sxy - sx*sy) / den
	intercept := (sy - slope*sx) / n
	if slope <= 0 {
		return nil, fmt.Errorf("predict: non-positive fitted slope %v (latency must grow with batch)", slope)
	}
	if intercept < 0 {
		intercept = 0
	}
	return &Predictor{Base: intercept, SecondsPerImage: slope}, nil
}

// LatencySeconds predicts per-batch latency.
func (p *Predictor) LatencySeconds(batch int) float64 {
	return p.Base + float64(batch)*p.SecondsPerImage
}

// Throughput predicts steady-state images/second at the batch size.
func (p *Predictor) Throughput(batch int) float64 {
	lat := p.LatencySeconds(batch)
	if lat <= 0 {
		return 0
	}
	return float64(batch) / lat
}

// BatchForLatency returns the largest batch (from the candidate list,
// ascending) whose predicted latency is within sloSeconds, or 0 if
// none fits.
func (p *Predictor) BatchForLatency(sloSeconds float64, candidates []int) int {
	best := 0
	for _, b := range candidates {
		if p.LatencySeconds(b) <= sloSeconds {
			best = b
		}
	}
	return best
}

// BatchForThroughput returns the smallest candidate batch predicted to
// reach the target throughput, or 0 if none does.
func (p *Predictor) BatchForThroughput(target float64, candidates []int) int {
	for _, b := range candidates {
		if p.Throughput(b) >= target {
			return b
		}
	}
	return 0
}

// ValidationReport quantifies prediction error against ground truth.
type ValidationReport struct {
	Points      int
	MaxRelErr   float64
	MeanRelErr  float64
	WorstBatch  int
	WorstActual float64
	WorstPred   float64
}

// Validate compares predictions against measured (batch, seconds)
// ground truth.
func (p *Predictor) Validate(truth []Sample) ValidationReport {
	var rep ValidationReport
	var sum float64
	for _, s := range truth {
		if s.Batch <= 0 || s.Seconds <= 0 {
			continue
		}
		pred := p.LatencySeconds(s.Batch)
		re := math.Abs(pred-s.Seconds) / s.Seconds
		sum += re
		rep.Points++
		if re > rep.MaxRelErr {
			rep.MaxRelErr = re
			rep.WorstBatch = s.Batch
			rep.WorstActual = s.Seconds
			rep.WorstPred = pred
		}
	}
	if rep.Points > 0 {
		rep.MeanRelErr = sum / float64(rep.Points)
	}
	return rep
}
