// Command harvest-plan is the pre-deployment planning toolkit the
// paper names as future work: given latency/throughput requirements
// and an optimization objective, it prices each candidate
// (platform, model) pair over its memory-feasible batch sweep and
// prints ranked deployment recommendations.
//
// Usage:
//
//	harvest-plan [flags]
//
// harvest-plan -h lists every flag with its default.
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"

	"harvest/internal/hw"
	"harvest/internal/predict"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("harvest-plan: ")
	var (
		sloMs     = flag.Float64("slo-ms", 16.7, "per-batch latency SLO in ms (0 = unconstrained)")
		minImgPS  = flag.Float64("min-imgps", 0, "minimum throughput in images/second")
		objective = flag.String("objective", "throughput", "throughput, latency or energy")
		pipeline  = flag.Bool("pipeline", false, "plan for co-located GPU preprocessing (end-to-end memory budget)")
		platforms = flag.String("platforms", "", "comma-separated platform keys (default all)")
		modelsArg = flag.String("models", "", "comma-separated model names (default all)")
		top       = flag.Int("top", 5, "number of recommendations to print")
	)
	flag.Parse()

	req := predict.Requirements{
		SLOSeconds:   *sloMs / 1000,
		MinImgPerSec: *minImgPS,
		Pipeline:     *pipeline,
	}
	switch *objective {
	case "throughput":
		req.Objective = predict.MaxThroughput
	case "latency":
		req.Objective = predict.MinLatency
	case "energy":
		req.Objective = predict.MaxImagesPerJoule
	default:
		log.Fatalf("unknown objective %q", *objective)
	}

	var plats []*hw.Platform
	if *platforms != "" {
		for _, name := range strings.Split(*platforms, ",") {
			p, err := hw.ByName(strings.TrimSpace(name))
			if err != nil {
				log.Fatal(err)
			}
			plats = append(plats, p)
		}
	}
	var modelNames []string
	if *modelsArg != "" {
		for _, m := range strings.Split(*modelsArg, ",") {
			modelNames = append(modelNames, strings.TrimSpace(m))
		}
	}

	opts, err := predict.Plan(req, plats, modelNames)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("objective=%s slo=%.1fms min-throughput=%.0f img/s pipeline=%v\n\n",
		req.Objective, *sloMs, *minImgPS, *pipeline)
	fmt.Printf("%-4s %-8s %-10s %-6s %-12s %-12s %-10s %s\n",
		"Rank", "Platform", "Model", "Batch", "PredLat(ms)", "Pred img/s", "img/J", "Mem(MiB)")
	for i, o := range opts {
		if i >= *top {
			break
		}
		fmt.Printf("%-4d %-8s %-10s %-6d %-12.2f %-12.1f %-10.2f %d\n",
			i+1, o.Platform, o.Model, o.Batch,
			o.PredLatencySeconds*1000, o.PredImgPerSec, o.ImagesPerJoule,
			o.MemoryBytes>>20)
	}
}
