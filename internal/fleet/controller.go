package fleet

import (
	"context"
	"fmt"
	"sync"
	"time"

	"harvest/internal/metrics"
	"harvest/internal/serve"
)

// Controller defaults.
const (
	// DefaultControlInterval is the autoscaler tick period.
	DefaultControlInterval = 2 * time.Second
	// attainTarget is the SLO attainment fraction below which the
	// controller scales up even when the sim disagrees.
	attainTarget = 0.95
	// headroomFactor over-provisions the demand estimate fed to the
	// capacity oracle, so the chosen fleet is not sized exactly at the
	// knee.
	headroomFactor = 1.2
	// scaleDownAfter is how many consecutive healthy ticks must agree
	// before the controller sheds a replica (scale-down is deliberate;
	// scale-up is immediate).
	scaleDownAfter = 3
	// maxDecisions bounds the decision log.
	maxDecisions = 256
	// sloClass is the class whose queue-latency attainment the loop
	// watches.
	sloClass = serve.ClassOnline
)

// ControllerConfig tunes the SLO-driven autoscaler.
type ControllerConfig struct {
	// Model is the served model whose demand drives scaling (and the
	// model the oracle prices capacity for).
	Model string
	// Min/Max bound the fleet size the controller will act toward
	// (defaults 1 and 8).
	Min, Max int
	// Interval is the control-loop period (default 2s).
	Interval time.Duration
	// SLO is the per-request queue-latency bound attainment is measured
	// against, and the bound the oracle sizes for.
	SLO time.Duration
	// Logf, when non-nil, receives decision logs.
	Logf func(format string, args ...any)
}

func (cfg *ControllerConfig) fillDefaults() {
	if cfg.Min <= 0 {
		cfg.Min = 1
	}
	if cfg.Max <= 0 {
		cfg.Max = 8
	}
	if cfg.Max < cfg.Min {
		cfg.Max = cfg.Min
	}
	if cfg.Interval <= 0 {
		cfg.Interval = DefaultControlInterval
	}
}

// Decision records one autoscaler tick's observation and action.
type Decision struct {
	At time.Time `json:"at"`
	// Observed demand over the last interval.
	ArrivalRPS float64 `json:"arrival_rps"`
	QueueDepth int64   `json:"queue_depth"`
	// Attainment is the fraction of sloClass requests whose queue wait
	// met the SLO during the window (1 when the window saw none).
	Attainment float64 `json:"attainment"`
	// From/To are the fleet sizes before and after the action (equal
	// when the tick held steady or the controller is advisory).
	From int `json:"from"`
	To   int `json:"to"`
	// Oracle outputs backing the action.
	Platform           string  `json:"platform,omitempty"`
	PredictedImgPerSec float64 `json:"predicted_img_per_sec,omitempty"`
	PredictedP99Ms     float64 `json:"predicted_p99_ms,omitempty"`
	PowerW             float64 `json:"power_w,omitempty"`
	Reason             string  `json:"reason"`
}

// Controller is the SLO-driven autoscaler: each tick it estimates the
// arrival rate and per-class SLO attainment from the router's merged
// metrics, asks the queueing sim (PlanCapacity) for the smallest
// fleet serving that demand, and moves the fleet toward it through the
// provisioner. With a nil provisioner it is advisory: decisions are
// recorded but never acted on.
type Controller struct {
	cfg      ControllerConfig
	platform string // hw key of the fleet's replicas, the one the oracle prices
	router   *serve.Router
	registry *Registry
	prov     *LocalProvisioner

	mu        sync.Mutex
	decisions []Decision

	// Tick state, touched only by the control loop's goroutine.
	healthy  int     // consecutive ticks eligible for scale-down
	lastCum  float64 // cumulative arrival counter at last tick
	lastAt   time.Time
	lastHist []uint64 // sloClass queue-latency buckets at last tick

	stop chan struct{}
	once sync.Once
	wg   sync.WaitGroup
}

// NewController builds the autoscaler for a fleet of platform
// replicas (an hw key; empty means "A100"). Callers must Close it;
// Start launches the Min-replica floor and the control loop.
func NewController(router *serve.Router, registry *Registry, prov *LocalProvisioner, platform string, cfg ControllerConfig) *Controller {
	cfg.fillDefaults()
	return &Controller{
		cfg:      cfg,
		platform: platform,
		router:   router,
		registry: registry,
		prov:     prov,
		stop:     make(chan struct{}),
	}
}

func (c *Controller) logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}

// Start brings the fleet to the Min floor (blocking until the launches
// are issued, not until the replicas register) and starts the control
// loop.
func (c *Controller) Start() error {
	if _, err := c.scaleUp(0, c.cfg.Min); err != nil {
		return fmt.Errorf("fleet: floor launch: %w", err)
	}
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		ticker := time.NewTicker(c.cfg.Interval)
		defer ticker.Stop()
		for {
			select {
			case <-c.stop:
				return
			case <-ticker.C:
				c.tick()
			}
		}
	}()
	return nil
}

// Close stops the control loop. Launched replicas are left to the
// provisioner's owner (LocalProvisioner.Close stops them).
func (c *Controller) Close() {
	c.once.Do(func() { close(c.stop) })
	c.wg.Wait()
}

// Decisions returns the decision log, oldest first.
func (c *Controller) Decisions() []Decision {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Decision(nil), c.decisions...)
}

// attainment computes the fraction of sloClass queue-latency
// observations within the SLO during the window between cur and the
// previous tick's buckets. Aggregated cumulative counters shrink when
// a replica leaves the pool, so negative per-bucket deltas are
// clamped. Returns 1 and the new baseline when the window saw nothing.
func attainment(prev, cur []uint64, slo time.Duration) float64 {
	if len(cur) != metrics.NumLatencyBuckets {
		return 1
	}
	bounds := metrics.LatencyBucketBounds()
	sloSec := slo.Seconds()
	var met, total uint64
	for i, c := range cur {
		var p uint64
		if i < len(prev) {
			p = prev[i]
		}
		if c <= p {
			continue // clamp: replica removal shrank the aggregate
		}
		d := c - p
		total += d
		if bounds[i] <= sloSec {
			met += d
		}
	}
	if total == 0 {
		return 1
	}
	return float64(met) / float64(total)
}

// tick runs one control iteration: observe, consult the oracle, act.
func (c *Controller) tick() {
	ctx, cancel := context.WithTimeout(context.Background(), c.cfg.Interval)
	defer cancel()
	m := c.router.Metrics(ctx)

	var mm *serve.ModelMetricsJSON
	for i := range m.Models {
		if m.Models[i].Model == c.cfg.Model {
			mm = &m.Models[i]
			break
		}
	}
	now := time.Now()
	var cum float64
	var queueDepth int64
	att := 1.0
	var curHist []uint64
	if mm != nil {
		// Everything that arrived: completions, rejections, evictions.
		cum = float64(mm.Requests + mm.Errors + mm.Cancelled + mm.Shed + mm.Expired)
		queueDepth = mm.QueueDepth
		if sum, ok := mm.QueueMsByClass[sloClass.String()]; ok {
			curHist = sum.Buckets
			att = attainment(c.lastHist, curHist, c.cfg.SLO)
		}
	}
	window := c.cfg.Interval.Seconds()
	if !c.lastAt.IsZero() {
		if w := now.Sub(c.lastAt).Seconds(); w > 0 {
			window = w
		}
	}
	// Demand estimate: the window's arrivals plus the standing backlog
	// amortized over one interval (a backlog is demand the fleet has
	// not kept up with). Aggregate counters shrink on replica removal,
	// so the arrivals are clamped at zero.
	rate := max(cum-c.lastCum, 0)/window + float64(queueDepth)/window
	c.lastCum, c.lastAt = cum, now
	if curHist != nil {
		c.lastHist = curHist
	}
	// Fleet size is what holds a live, non-retiring lease — launched
	// replicas that crashed (lease expired) no longer count.
	cur := 0
	for _, l := range c.registry.Leases() {
		if !l.Draining {
			cur++
		}
	}

	d := Decision{
		At:         now,
		ArrivalRPS: rate,
		QueueDepth: queueDepth,
		Attainment: att,
		From:       cur,
		To:         cur,
	}

	desired := cur
	if rate > 0 {
		plan, err := PlanCapacity(OracleConfig{Model: c.cfg.Model, Platform: c.platform, MaxReplicas: c.cfg.Max},
			rate*headroomFactor, c.cfg.SLO)
		if err != nil {
			d.Reason = "oracle error: " + err.Error()
			c.record(d)
			return
		}
		desired = plan.Chosen.Replicas
		d.Platform = plan.Chosen.Platform
		d.PredictedImgPerSec = plan.Chosen.PredictedImgPerSec
		d.PredictedP99Ms = plan.Chosen.PredictedP99Ms
		d.PowerW = plan.Chosen.PowerW
		if !plan.Chosen.MeetsSLO {
			d.Reason = fmt.Sprintf("no candidate meets SLO at %.1f rps; best effort %d× %s", rate, desired, plan.Chosen.Platform)
		}
	}
	if att < attainTarget && desired <= cur {
		// The sim thinks the fleet suffices but reality disagrees —
		// queue wait is blowing the SLO. Trust the measurement.
		desired = cur + 1
		d.Reason = fmt.Sprintf("attainment %.2f below target %.2f", att, attainTarget)
	}
	desired = min(max(desired, c.cfg.Min), c.cfg.Max)

	switch {
	case desired > cur:
		c.healthy = 0
		switch {
		case d.Reason != "":
		case d.Platform == "":
			d.Reason = fmt.Sprintf("below floor; scaling to min %d", c.cfg.Min)
		default:
			d.Reason = fmt.Sprintf("sim: %d× %s serves %.1f rps at p99 %.0f ms for %.0f W", desired, d.Platform, rate*headroomFactor, d.PredictedP99Ms, d.PowerW)
		}
		var err error
		if d.To, err = c.scaleUp(cur, desired); err != nil {
			c.logf("fleet controller: launch: %v", err)
		}
	case desired < cur:
		c.healthy++
		switch {
		case att < attainTarget:
			c.healthy = 0
			d.Reason = fmt.Sprintf("hold %d: attainment %.2f below target", cur, att)
		case c.healthy < scaleDownAfter:
			d.Reason = fmt.Sprintf("hold %d: scale-down to %d pending %d/%d healthy ticks", cur, desired, c.healthy, scaleDownAfter)
		default:
			c.healthy = 0
			d.Reason = fmt.Sprintf("sim: %d× %s suffices for %.1f rps; shedding idle capacity", desired, d.Platform, rate*headroomFactor)
			d.To = c.scaleDown(cur, desired)
		}
	default:
		if d.Reason == "" {
			d.Reason = fmt.Sprintf("hold %d", cur)
		}
	}
	c.record(d)
}

// scaleUp launches to-cur replicas; returns the resulting size and
// the launch error that stopped it short. With no provisioner the
// decision is advisory: it reports the target size without acting.
func (c *Controller) scaleUp(cur, to int) (int, error) {
	if c.prov == nil {
		return to, nil // advisory
	}
	for n := cur; n < to; n++ {
		if _, err := c.prov.Launch(); err != nil {
			return n, err
		}
	}
	return max(cur, to), nil
}

// scaleDown retires the most recently launched replicas (LIFO) down to
// `to`, drain-aware through LocalProvisioner.Stop; returns the
// resulting size. Advisory (no provisioner): reports the target
// without acting.
func (c *Controller) scaleDown(cur, to int) int {
	if c.prov == nil {
		return to // advisory
	}
	n := cur
	for ; n > to && n > c.cfg.Min; n-- {
		if err := c.prov.Stop(); err != nil {
			c.logf("fleet controller: stop: %v", err)
			break
		}
	}
	return n
}

// record appends to the bounded decision log.
func (c *Controller) record(d Decision) {
	c.logf("fleet controller: %s (%d→%d, %.1f rps, attain %.2f)", d.Reason, d.From, d.To, d.ArrivalRPS, d.Attainment)
	c.mu.Lock()
	c.decisions = append(c.decisions, d)
	if len(c.decisions) > maxDecisions {
		c.decisions = c.decisions[len(c.decisions)-maxDecisions:]
	}
	c.mu.Unlock()
}
