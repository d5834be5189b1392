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
	// DefaultAttainTarget is the SLO attainment fraction below which
	// the controller scales up even when the sim disagrees.
	DefaultAttainTarget = 0.95
	// DefaultHeadroomFactor over-provisions the demand estimate fed to
	// the capacity oracle, so the chosen fleet is not sized exactly at
	// the knee.
	DefaultHeadroomFactor = 1.2
	// DefaultScaleDownAfter is how many consecutive healthy ticks must
	// agree before the controller sheds a replica (scale-down is
	// deliberate; scale-up is immediate).
	DefaultScaleDownAfter = 3
	// maxDecisions bounds the decision log.
	maxDecisions = 256
)

// ControllerConfig tunes the SLO-driven autoscaler.
type ControllerConfig struct {
	// Model is the served model whose demand drives scaling (and the
	// model the oracle prices capacity for).
	Model string
	// Oracle configures the capacity oracle; its Model field is
	// overridden with Model above.
	Oracle OracleConfig
	// Min/Max bound the fleet size the controller will act toward
	// (defaults 1 and Oracle.MaxReplicas).
	Min, Max int
	// Interval is the control-loop period (default 2s).
	Interval time.Duration
	// SLOClass is the class whose queue-latency attainment the loop
	// watches (default "online").
	SLOClass string
	// SLO is the per-request queue-latency bound attainment is measured
	// against, and the bound the oracle sizes for.
	SLO time.Duration
	// AttainTarget is the attainment fraction considered healthy
	// (default 0.95).
	AttainTarget float64
	// HeadroomFactor multiplies the demand estimate before asking the
	// oracle (default 1.2).
	HeadroomFactor float64
	// ScaleDownAfter is the consecutive-healthy-tick requirement before
	// shedding a replica (default 3).
	ScaleDownAfter int
	// Logf, when non-nil, receives decision logs.
	Logf func(format string, args ...any)
}

func (cfg *ControllerConfig) fillDefaults() {
	if cfg.Min <= 0 {
		cfg.Min = 1
	}
	cfg.Oracle.Model = cfg.Model
	cfg.Oracle.fillDefaults()
	if cfg.Max <= 0 {
		cfg.Max = cfg.Oracle.MaxReplicas
	}
	if cfg.Max < cfg.Min {
		cfg.Max = cfg.Min
	}
	cfg.Oracle.MaxReplicas = cfg.Max
	if cfg.Interval <= 0 {
		cfg.Interval = DefaultControlInterval
	}
	if cfg.SLOClass == "" {
		cfg.SLOClass = serve.ClassOnline.String()
	}
	if cfg.AttainTarget <= 0 || cfg.AttainTarget > 1 {
		cfg.AttainTarget = DefaultAttainTarget
	}
	if cfg.HeadroomFactor < 1 {
		cfg.HeadroomFactor = DefaultHeadroomFactor
	}
	if cfg.ScaleDownAfter <= 0 {
		cfg.ScaleDownAfter = DefaultScaleDownAfter
	}
}

// Decision records one autoscaler tick's observation and action.
type Decision struct {
	At time.Time `json:"at"`
	// Observed demand over the last interval.
	ArrivalRPS float64 `json:"arrival_rps"`
	QueueDepth int64   `json:"queue_depth"`
	// Attainment is the fraction of SLOClass requests whose queue wait
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
// metrics, asks the queueing sim (PlanCapacity) for the cheapest
// fleet serving that demand, and moves the fleet toward it through the
// Provisioner. With a nil provisioner it is advisory: decisions are
// recorded but never acted on.
type Controller struct {
	cfg      ControllerConfig
	router   *serve.Router
	registry *Registry
	prov     Provisioner

	mu        sync.Mutex
	decisions []Decision
	launched  []string // provisioner-owned replica URLs, launch order
	healthy   int      // consecutive ticks eligible for scale-down
	lastCum   float64  // cumulative arrival counter at last tick
	lastAt    time.Time
	lastHist  []uint64 // SLOClass queue-latency buckets at last tick

	stop chan struct{}
	once sync.Once
	wg   sync.WaitGroup
}

// NewController builds the autoscaler. Callers must Close it; Start
// launches the Min-replica floor and the control loop.
func NewController(router *serve.Router, registry *Registry, prov Provisioner, cfg ControllerConfig) *Controller {
	cfg.fillDefaults()
	return &Controller{
		cfg:      cfg,
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
func (c *Controller) Start(ctx context.Context) error {
	if c.prov != nil {
		for i := len(c.launchedURLs()); i < c.cfg.Min; i++ {
			url, err := c.prov.Launch(ctx, c.platform())
			if err != nil {
				return fmt.Errorf("fleet: floor launch: %w", err)
			}
			c.mu.Lock()
			c.launched = append(c.launched, url)
			c.mu.Unlock()
		}
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

func (c *Controller) launchedURLs() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.launched...)
}

// platform returns the single platform the controller launches; the
// oracle may rank several, but launches follow its cheapest choice
// (falling back to the first configured).
func (c *Controller) platform() string {
	return c.cfg.Oracle.Platforms[0]
}

// attainment computes the fraction of SLOClass queue-latency
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
	c.mu.Lock()
	lastCum, lastAt, lastHist := c.lastCum, c.lastAt, c.lastHist
	c.mu.Unlock()

	var cum float64
	var queueDepth int64
	att := 1.0
	var curHist []uint64
	if mm != nil {
		// Everything that arrived: completions, rejections, evictions.
		cum = float64(mm.Requests + mm.Errors + mm.Cancelled + mm.Shed + mm.Expired)
		queueDepth = mm.QueueDepth
		if sum, ok := mm.QueueMsByClass[c.cfg.SLOClass]; ok {
			curHist = sum.Buckets
			att = attainment(lastHist, curHist, c.cfg.SLO)
		}
	}
	window := c.cfg.Interval.Seconds()
	if !lastAt.IsZero() {
		if w := now.Sub(lastAt).Seconds(); w > 0 {
			window = w
		}
	}
	delta := cum - lastCum
	if delta < 0 {
		delta = 0 // aggregate counters shrink on replica removal
	}
	// Demand estimate: the window's arrivals plus the standing backlog
	// amortized over one interval (a backlog is demand the fleet has
	// not kept up with).
	rate := delta/window + float64(queueDepth)/window

	c.mu.Lock()
	c.lastCum, c.lastAt = cum, now
	if curHist != nil {
		c.lastHist = append([]uint64(nil), curHist...)
	}
	c.mu.Unlock()
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
		plan, err := PlanCapacity(c.cfg.Oracle, rate*c.cfg.HeadroomFactor, c.cfg.SLO)
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
	if att < c.cfg.AttainTarget && desired <= cur {
		// The sim thinks the fleet suffices but reality disagrees —
		// queue wait is blowing the SLO. Trust the measurement.
		desired = cur + 1
		d.Reason = fmt.Sprintf("attainment %.2f below target %.2f", att, c.cfg.AttainTarget)
	}
	if desired < c.cfg.Min {
		desired = c.cfg.Min
	}
	if desired > c.cfg.Max {
		desired = c.cfg.Max
	}

	switch {
	case desired > cur:
		c.mu.Lock()
		c.healthy = 0
		c.mu.Unlock()
		switch {
		case d.Reason != "":
		case d.Platform == "":
			d.Reason = fmt.Sprintf("below floor; scaling to min %d", c.cfg.Min)
		default:
			d.Reason = fmt.Sprintf("sim: %d× %s serves %.1f rps at p99 %.0f ms for %.0f W", desired, d.Platform, rate*c.cfg.HeadroomFactor, d.PredictedP99Ms, d.PowerW)
		}
		d.To = c.scaleUp(ctx, cur, desired)
	case desired < cur:
		c.mu.Lock()
		c.healthy++
		healthy := c.healthy
		c.mu.Unlock()
		if att < c.cfg.AttainTarget {
			c.mu.Lock()
			c.healthy = 0
			c.mu.Unlock()
			d.Reason = fmt.Sprintf("hold %d: attainment %.2f below target", cur, att)
			break
		}
		if healthy < c.cfg.ScaleDownAfter {
			d.Reason = fmt.Sprintf("hold %d: scale-down to %d pending %d/%d healthy ticks", cur, desired, healthy, c.cfg.ScaleDownAfter)
			break
		}
		c.mu.Lock()
		c.healthy = 0
		c.mu.Unlock()
		d.Reason = fmt.Sprintf("sim: %d× %s suffices for %.1f rps; shedding idle capacity", desired, d.Platform, rate*c.cfg.HeadroomFactor)
		d.To = c.scaleDown(ctx, cur, desired)
	default:
		if d.Reason == "" {
			d.Reason = fmt.Sprintf("hold %d", cur)
		}
	}
	c.record(d)
}

// scaleUp launches to-cur replicas; returns the resulting size. With
// no provisioner the decision is advisory: it reports the target size
// without acting.
func (c *Controller) scaleUp(ctx context.Context, cur, to int) int {
	if c.prov == nil {
		return to // advisory
	}
	n := cur
	for ; n < to; n++ {
		url, err := c.prov.Launch(ctx, c.platform())
		if err != nil {
			c.logf("fleet controller: launch: %v", err)
			break
		}
		c.mu.Lock()
		c.launched = append(c.launched, url)
		c.mu.Unlock()
	}
	return n
}

// scaleDown retires the most recently launched replicas (LIFO) down to
// `to`, drain-aware through Provisioner.Stop; returns the resulting
// size. Advisory (no provisioner): reports the target without acting.
func (c *Controller) scaleDown(ctx context.Context, cur, to int) int {
	if c.prov == nil {
		return to // advisory
	}
	alive := map[string]bool{}
	for _, l := range c.registry.Leases() {
		alive[l.URL] = true
	}
	n := cur
	for n > to && n > c.cfg.Min {
		c.mu.Lock()
		if len(c.launched) == 0 {
			c.mu.Unlock()
			break
		}
		url := c.launched[len(c.launched)-1]
		c.launched = c.launched[:len(c.launched)-1]
		c.mu.Unlock()
		if !alive[url] {
			continue // crashed earlier; its lease already expired
		}
		if err := c.prov.Stop(ctx, url); err != nil {
			c.logf("fleet controller: stop %s: %v", url, err)
		}
		n--
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
