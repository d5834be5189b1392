package experiments

import (
	"fmt"

	"harvest/internal/energy"
	"harvest/internal/engine"
	"harvest/internal/hw"
	"harvest/internal/metrics"
	"harvest/internal/models"
	"harvest/internal/pipeline"
	"harvest/internal/predict"
)

// ExtensionIDs lists the beyond-the-paper artifacts.
func ExtensionIDs() []string {
	return []string{"energy", "prediction", "scaleout", "offload", "roofline", "ablations"}
}

// RunAny dispatches to paper artifacts or extensions.
func RunAny(id string, opts Options) (*Artifact, error) {
	switch id {
	case "energy":
		return Energy(opts)
	case "prediction":
		return Prediction(opts)
	case "scaleout":
		return ScaleOut(opts)
	case "offload":
		return Offload(opts)
	case "roofline":
		return Roofline(opts)
	case "ablations":
		return Ablations(opts)
	}
	return Run(id, opts)
}

// Energy quantifies the paper's §5 energy-efficiency remark: joules
// per image and images per joule for every platform/model at the
// Fig. 8 operating point.
func Energy(opts Options) (*Artifact, error) {
	a := &Artifact{ID: "energy", Title: "Energy Efficiency Across the Compute Continuum (extension)"}
	t := metrics.NewTable("Per-image energy at the end-to-end operating point",
		"Platform", "Power(W)", "Model", "Batch", "img/s", "MFU%", "J/img", "img/J")
	type best struct {
		platform string
		ipj      float64
	}
	perModelBest := map[string]best{}
	for _, p := range hw.FigureOrder() {
		em := energy.New(p)
		for _, name := range models.Names() {
			eng, err := engine.New(p, name)
			if err != nil {
				return nil, err
			}
			eng.Pipeline = true
			batch := eng.MaxBatch(hw.EndToEndMaxBatch)
			if batch == 0 {
				continue
			}
			st, err := eng.Infer(batch)
			if err != nil {
				return nil, err
			}
			jpi, err := em.JoulesPerImage(st.ImgPerSec, st.MFU)
			if err != nil {
				return nil, err
			}
			ipj := 1 / jpi
			t.AddRow(p.Name, p.PowerW, name, batch, st.ImgPerSec, st.MFU*100, jpi, ipj)
			if b, ok := perModelBest[name]; !ok || ipj > b.ipj {
				perModelBest[name] = best{platform: p.Name, ipj: ipj}
			}
		}
	}
	a.Tables = append(a.Tables, t)
	for _, name := range models.Names() {
		if b, ok := perModelBest[name]; ok {
			a.AddNote("%s: best images/joule on %s (%.1f img/J)", name, b.platform, b.ipj)
		}
	}
	a.AddNote("idle power fraction modeled at 30%% of the Table 1 budget")
	_ = opts
	return a, nil
}

// Prediction exercises the deployment-planning toolkit: plan
// deployments for three requirement profiles.
func Prediction(opts Options) (*Artifact, error) {
	a := &Artifact{ID: "prediction", Title: "Pre-deployment Performance Prediction (paper future work)"}

	plans := metrics.NewTable("Planner recommendations",
		"Requirement", "Rank", "Platform", "Model", "Batch", "PredLat(ms)", "Pred img/s", "img/J")
	reqs := []struct {
		name string
		req  predict.Requirements
	}{
		{"online 60QPS cloud", predict.Requirements{SLOSeconds: hw.QPS60LatencyMs / 1000, Objective: predict.MaxThroughput}},
		{"real-time 30FPS", predict.Requirements{SLOSeconds: 1.0 / 30, Objective: predict.MinLatency, MinImgPerSec: 30}},
		{"battery edge campaign", predict.Requirements{SLOSeconds: 0.5, Objective: predict.MaxImagesPerJoule, Pipeline: true}},
	}
	for _, rc := range reqs {
		optsList, err := predict.Plan(rc.req, nil, nil)
		if err != nil {
			return nil, fmt.Errorf("planning %q: %w", rc.name, err)
		}
		for rank, o := range optsList {
			if rank >= 3 {
				break
			}
			plans.AddRow(rc.name, rank+1, o.Platform, o.Model, o.Batch,
				o.PredLatencySeconds*1000, o.PredImgPerSec, o.ImagesPerJoule)
		}
	}
	a.Tables = append(a.Tables, plans)
	a.AddNote("each target is priced by its engine's calibrated latency law over the memory-feasible batch sweep")
	_ = opts
	return a, nil
}

// ScaleOut evaluates data-parallel replication across the node's two
// GPUs (Table 1 lists two; the paper used one) under open-loop load.
func ScaleOut(opts Options) (*Artifact, error) {
	a := &Artifact{ID: "scaleout", Title: "Data-Parallel Scale-Out Across Node GPUs (extension)"}
	horizon := 20.0
	if opts.Quick {
		horizon = 5
	}
	for _, p := range []*hw.Platform{hw.A100(), hw.V100()} {
		t := metrics.NewTable(fmt.Sprintf("(%s) ViT_Base @BS64, open-loop load", p.Name),
			"Replicas", "Offered(img/s)", "Throughput(img/s)", "MeanLat(ms)", "P99Lat(ms)", "Util%")
		eng, err := engine.New(p, models.NameViTBase)
		if err != nil {
			return nil, err
		}
		st, err := eng.Infer(64)
		if err != nil {
			return nil, err
		}
		single := 1 / st.Seconds // batches/sec one replica sustains
		for _, replicas := range []int{1, 2} {
			for _, frac := range []float64{0.5, 0.9, 1.4} {
				res, err := pipeline.RunReplicas(pipeline.ReplicaConfig{
					Platform:             p,
					Model:                models.NameViTBase,
					Replicas:             replicas,
					Batch:                64,
					OfferedBatchesPerSec: single * frac * float64(replicas),
					HorizonSeconds:       horizon,
					Seed:                 opts.Seed,
				})
				if err != nil {
					return nil, err
				}
				t.AddRow(res.Replicas, res.OfferedImgPerSec, res.Throughput,
					res.MeanLatencySeconds*1000, res.P99LatencySeconds*1000,
					res.Utilization*100)
			}
		}
		a.Tables = append(a.Tables, t)
	}
	a.AddNote("two replicas double sustainable throughput at matched utilization; overload (1.4x) shows unbounded queueing either way")
	return a, nil
}
