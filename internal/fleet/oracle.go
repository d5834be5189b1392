package fleet

import (
	"fmt"
	"time"

	"harvest/internal/energy"
	"harvest/internal/hw"
	"harvest/internal/scaleout"
)

// OracleConfig describes the capacity question the autoscaler asks the
// queueing simulation: which (platform, replica-count) fleet is
// the cheapest that serves a given arrival rate within the SLO?
type OracleConfig struct {
	// Model is the served model the sim prices capacity for.
	Model string
	// Platforms are the candidate platform kinds for new replicas
	// (hw keys, e.g. "A100", "Jetson"). Empty means ["A100"]. The
	// oracle evaluates homogeneous fleets per platform and picks the
	// cheapest across platforms; heterogeneous mixes reduce to running
	// the oracle per pool segment.
	Platforms []string
	// MaxReplicas bounds the candidate fleet size (default 8).
	MaxReplicas int
	// Batch is the per-request image count the sim's jobs carry
	// (default 1, matching single-image online/realtime requests).
	Batch int
	// HorizonSeconds is the simulated horizon per candidate (default
	// 10 — long enough for queueing to reach steady state, short
	// enough that a full candidate sweep costs milliseconds).
	HorizonSeconds float64
	// Seed drives the sim's arrival process; fixed seed makes
	// decisions reproducible for a given demand estimate.
	Seed uint64
	// StabilityMargin is the fraction of offered load a candidate must
	// complete within the horizon to count as stable (default 0.95;
	// saturated fleets complete less because backlog grows without
	// bound).
	StabilityMargin float64
}

func (cfg *OracleConfig) fillDefaults() {
	if len(cfg.Platforms) == 0 {
		cfg.Platforms = []string{hw.KeyA100}
	}
	if cfg.MaxReplicas <= 0 {
		cfg.MaxReplicas = 8
	}
	if cfg.Batch <= 0 {
		cfg.Batch = 1
	}
	if cfg.HorizonSeconds <= 0 {
		cfg.HorizonSeconds = 10
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.StabilityMargin <= 0 || cfg.StabilityMargin >= 1 {
		cfg.StabilityMargin = 0.95
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
	// candidate is stable (completes ≥ StabilityMargin of offered).
	MeetsSLO bool `json:"meets_slo"`
}

// Plan is the oracle's answer for one demand estimate.
type Plan struct {
	ArrivalRPS float64       `json:"arrival_rps"`
	SLO        time.Duration `json:"-"`
	SLOMs      float64       `json:"slo_ms"`
	// Chosen is the cheapest candidate meeting the SLO; when no
	// candidate meets it, the highest-throughput candidate (best
	// effort at the MaxReplicas ceiling) with MeetsSLO=false.
	Chosen Candidate `json:"chosen"`
	// Candidates lists everything evaluated, in evaluation order.
	Candidates []Candidate `json:"candidates,omitempty"`
}

// PlanCapacity asks the sim for the cheapest fleet that serves
// arrivalRPS requests/second of Batch-image requests within slo. For
// each candidate platform it grows the replica count until the sim
// predicts a stable fleet whose P99 (queueing included) is within the
// SLO, prices that fleet with the energy model, and returns the
// cheapest across platforms. This is the control plane's
// model-predictive step: the same simulator that scaleout.Validate
// shows tracks live throughput within 0.9% prices a scale-up before
// the fleet commits to it.
func PlanCapacity(cfg OracleConfig, arrivalRPS float64, slo time.Duration) (Plan, error) {
	cfg.fillDefaults()
	if arrivalRPS <= 0 {
		return Plan{}, fmt.Errorf("fleet: non-positive arrival rate %v", arrivalRPS)
	}
	if slo <= 0 {
		return Plan{}, fmt.Errorf("fleet: non-positive SLO %v", slo)
	}
	plan := Plan{
		ArrivalRPS: arrivalRPS,
		SLO:        slo,
		SLOMs:      float64(slo) / float64(time.Millisecond),
	}
	var chosen *Candidate
	var fallback *Candidate // best effort when nothing meets the SLO
	for _, key := range cfg.Platforms {
		p, err := hw.ByName(key)
		if err != nil {
			return Plan{}, err
		}
		em := energy.New(p)
		for n := 1; n <= cfg.MaxReplicas; n++ {
			res, err := scaleout.Run(scaleout.Config{
				Platform:             p,
				Model:                cfg.Model,
				Replicas:             n,
				Batch:                cfg.Batch,
				OfferedBatchesPerSec: arrivalRPS,
				HorizonSeconds:       cfg.HorizonSeconds,
				Seed:                 cfg.Seed,
			})
			if err != nil {
				return Plan{}, err
			}
			c := Candidate{
				Platform:             key,
				Replicas:             n,
				PredictedImgPerSec:   res.Throughput,
				PredictedP99Ms:       res.P99LatencySeconds * 1000,
				PredictedUtilization: res.Utilization,
				// Utilization stands in for MFU here: it is the busy
				// fraction the dynamic power scales with.
				PowerW:   float64(n) * em.PowerAt(res.Utilization),
				MeetsSLO: res.P99LatencySeconds <= slo.Seconds() && res.Throughput >= cfg.StabilityMargin*res.OfferedImgPerSec,
			}
			plan.Candidates = append(plan.Candidates, c)
			if fallback == nil || c.PredictedImgPerSec > fallback.PredictedImgPerSec {
				cc := c
				fallback = &cc
			}
			if c.MeetsSLO {
				// Within one platform, the first meeting size is the
				// cheapest (every extra replica adds idle power), so
				// stop growing this platform's fleet.
				if chosen == nil || c.PowerW < chosen.PowerW {
					cc := c
					chosen = &cc
				}
				break
			}
		}
	}
	if chosen != nil {
		plan.Chosen = *chosen
	} else if fallback != nil {
		plan.Chosen = *fallback
	}
	return plan, nil
}
