package fleet

import (
	"fmt"
	"time"

	"harvest/internal/energy"
	"harvest/internal/hw"
	"harvest/internal/pipeline"
)

// OracleConfig describes the capacity question the autoscaler asks the
// queueing simulation: how many replicas of the platform serve a given
// arrival rate within the SLO?
type OracleConfig struct {
	// Model is the served model the sim prices capacity for.
	Model string
	// Platform is the hw key of the replicas the fleet runs (e.g.
	// "A100", "Jetson"; empty means "A100").
	Platform string
	// MaxReplicas bounds the candidate fleet size (default 8).
	MaxReplicas int
	// HorizonSeconds is the simulated horizon per candidate (default
	// 10 — long enough for queueing to reach steady state, short
	// enough that a full candidate sweep costs milliseconds).
	HorizonSeconds float64
}

// The oracle's fixed sim settings.
const (
	// oracleBatch is the per-request image count the sim's jobs carry,
	// matching single-image online/realtime requests.
	oracleBatch = 1
	// oracleSeed drives the sim's arrival process; a fixed seed makes
	// decisions reproducible for a given demand estimate.
	oracleSeed = 1
	// stabilityMargin is the fraction of offered load a candidate must
	// complete within the horizon to count as stable: saturated fleets
	// complete less because backlog grows without bound.
	stabilityMargin = 0.95
)

func (cfg *OracleConfig) fillDefaults() {
	if cfg.Platform == "" {
		cfg.Platform = hw.KeyA100
	}
	if cfg.MaxReplicas <= 0 {
		cfg.MaxReplicas = 8
	}
	if cfg.HorizonSeconds <= 0 {
		cfg.HorizonSeconds = 10
	}
}

// Candidate is one fleet configuration the oracle evaluated.
type Candidate struct {
	Platform string `json:"platform"`
	Replicas int    `json:"replicas"`
	// PredictedImgPerSec / PredictedP99Ms / PredictedUtilization come
	// from the queueing sim at the asked arrival rate.
	PredictedImgPerSec   float64 `json:"predicted_img_per_sec"`
	PredictedP99Ms       float64 `json:"predicted_p99_ms"`
	PredictedUtilization float64 `json:"predicted_utilization"`
	// PowerW is the modeled fleet power draw at that utilization
	// (internal/energy), the cost the oracle minimizes.
	PowerW float64 `json:"power_w"`
	// MeetsSLO reports whether predicted P99 is within the SLO and the
	// candidate is stable (completes ≥ stabilityMargin of offered).
	MeetsSLO bool `json:"meets_slo"`
}

// Plan is the oracle's answer for one demand estimate.
type Plan struct {
	ArrivalRPS float64       `json:"arrival_rps"`
	SLO        time.Duration `json:"-"`
	SLOMs      float64       `json:"slo_ms"`
	// Chosen is the smallest fleet meeting the SLO; when no candidate
	// meets it, the highest-throughput candidate (best effort at the
	// MaxReplicas ceiling) with MeetsSLO=false.
	Chosen Candidate `json:"chosen"`
	// Candidates lists everything evaluated, in evaluation order.
	Candidates []Candidate `json:"candidates,omitempty"`
}

// PlanCapacity asks the sim for the smallest fleet that serves
// arrivalRPS single-image requests/second within slo. It grows the
// replica count until the sim predicts a stable fleet whose P99
// (queueing included) is within the SLO, and prices each candidate
// with the energy model. This is the control plane's model-predictive
// step: the same simulator that pipeline's live validation test shows
// tracks live throughput within 0.9% prices a scale-up before the
// fleet commits to it.
func PlanCapacity(cfg OracleConfig, arrivalRPS float64, slo time.Duration) (Plan, error) {
	cfg.fillDefaults()
	if arrivalRPS <= 0 {
		return Plan{}, fmt.Errorf("fleet: non-positive arrival rate %v", arrivalRPS)
	}
	if slo <= 0 {
		return Plan{}, fmt.Errorf("fleet: non-positive SLO %v", slo)
	}
	p, err := hw.ByName(cfg.Platform)
	if err != nil {
		return Plan{}, err
	}
	em := energy.New(p)
	plan := Plan{
		ArrivalRPS: arrivalRPS,
		SLO:        slo,
		SLOMs:      float64(slo) / float64(time.Millisecond),
	}
	for n := 1; n <= cfg.MaxReplicas; n++ {
		res, err := pipeline.RunReplicas(pipeline.ReplicaConfig{
			Platform:             p,
			Model:                cfg.Model,
			Replicas:             n,
			Batch:                oracleBatch,
			OfferedBatchesPerSec: arrivalRPS,
			HorizonSeconds:       cfg.HorizonSeconds,
			Seed:                 oracleSeed,
		})
		if err != nil {
			return Plan{}, err
		}
		c := Candidate{
			Platform:             cfg.Platform,
			Replicas:             n,
			PredictedImgPerSec:   res.Throughput,
			PredictedP99Ms:       res.P99LatencySeconds * 1000,
			PredictedUtilization: res.Utilization,
			// Utilization stands in for MFU here: it is the busy
			// fraction the dynamic power scales with.
			PowerW:   float64(n) * em.PowerAt(res.Utilization),
			MeetsSLO: res.P99LatencySeconds <= slo.Seconds() && res.Throughput >= stabilityMargin*res.OfferedImgPerSec,
		}
		plan.Candidates = append(plan.Candidates, c)
		if n == 1 || c.PredictedImgPerSec > plan.Chosen.PredictedImgPerSec {
			plan.Chosen = c // best effort so far
		}
		if c.MeetsSLO {
			// The first meeting size is the cheapest: every extra
			// replica adds idle power.
			plan.Chosen = c
			break
		}
	}
	return plan, nil
}
