package serve

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// Replica health states. A replica starts healthy, is ejected after
// EjectAfter consecutive errors (circuit open), and re-enters service
// through a half-open probe once its ejection window lapses.
const (
	replicaHealthy int32 = iota
	replicaEjected
)

// Pool defaults.
const (
	// DefaultProbeInterval is the period of the per-replica health loop
	// (readiness probe + /v2/metrics refresh).
	DefaultProbeInterval = 250 * time.Millisecond
	// DefaultEjectAfter is the consecutive-error threshold that ejects
	// a replica from dispatch.
	DefaultEjectAfter = 3
	// DefaultEjectionDuration is how long an ejected replica sits out
	// before a half-open probe may readmit it.
	DefaultEjectionDuration = 2 * time.Second
	// DefaultProbeTimeout bounds one readiness/metrics probe.
	DefaultProbeTimeout = 2 * time.Second
)

// staleMetricsFactor is how many probe intervals a metrics snapshot
// stays trusted for load scoring. A replica whose /v2/metrics probe
// keeps failing (while /ready still answers) would otherwise be ranked
// on its last snapshot forever — e.g. avoided indefinitely because it
// reported a deep queue just before the probe path broke, even though
// the queue drained long ago. Past the horizon, score falls back to
// the router's own in-flight count, which is always current.
const staleMetricsFactor = 3

// probePhaseSlots spreads replica health loops across the probe
// interval: replica i starts its loop at offset (i mod slots)/slots of
// one interval. Without the offset every loop in a pool ticks in phase
// (they all start at the same instant with the same period), so N
// replicas receive a synchronized probe burst every interval.
const probePhaseSlots = 16

// PoolConfig configures replica health checking and outlier ejection.
type PoolConfig struct {
	// ProbeInterval is the health-loop period (default
	// DefaultProbeInterval).
	ProbeInterval time.Duration
	// EjectAfter ejects a replica after this many consecutive errors
	// (probe failures, transport errors, 5xx responses). Default
	// DefaultEjectAfter.
	EjectAfter int
	// EjectionDuration is how long an ejection lasts before the health
	// loop half-opens the circuit with a single readiness probe:
	// success readmits the replica, failure re-ejects it for another
	// window. Default DefaultEjectionDuration.
	EjectionDuration time.Duration
	// ProbeTimeout bounds one probe round trip (default
	// DefaultProbeTimeout).
	ProbeTimeout time.Duration
}

func (cfg *PoolConfig) fillDefaults() {
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = DefaultProbeInterval
	}
	if cfg.EjectAfter <= 0 {
		cfg.EjectAfter = DefaultEjectAfter
	}
	if cfg.EjectionDuration <= 0 {
		cfg.EjectionDuration = DefaultEjectionDuration
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = DefaultProbeTimeout
	}
}

// Replica is one backend in a Pool: a serve.Client plus health and
// load state maintained by the health loop and the request path.
type Replica struct {
	Name string
	URL  string

	client *Client
	pool   *Pool
	// done is closed when the replica is removed from the pool,
	// stopping its health loop. Requests already holding the replica
	// are unaffected: the client stays usable until they finish.
	done chan struct{}
	// phase staggers this replica's health loop within the probe
	// interval (see probePhaseSlots).
	phase time.Duration

	state        atomic.Int32 // replicaHealthy / replicaEjected
	draining     atomic.Bool  // excluded from new picks; in-flight work finishes
	consecErrs   atomic.Int32
	ejectedUntil atomic.Int64 // unix nanos; valid while state == replicaEjected
	ejections    atomic.Int64 // total ejections (observability)
	inflight     atomic.Int64 // router-proxied requests currently on this replica
	metrics      atomic.Pointer[MetricsJSON]
	metricsAt    atomic.Int64 // unix nanos of the last successful metrics fetch
}

// Healthy reports whether the replica is in dispatch rotation.
func (rep *Replica) Healthy() bool { return rep.state.Load() == replicaHealthy }

// Inflight returns the router-proxied requests currently on the
// replica (the drain signal for lease deregistration).
func (rep *Replica) Inflight() int64 { return rep.inflight.Load() }

// SetDraining marks the replica as draining: it stops receiving new
// picks (except as the very last untried resort) while in-flight
// requests finish. A fleet control plane sets it before removing the
// replica so scale-down never fails admitted requests.
func (rep *Replica) SetDraining(v bool) { rep.draining.Store(v) }

// Draining reports whether the replica is excluded from new dispatch.
func (rep *Replica) Draining() bool { return rep.draining.Load() }

// storeMetrics records a fresh metrics snapshot with its fetch time,
// so score can tell a live snapshot from a fossil.
func (rep *Replica) storeMetrics(m *MetricsJSON) {
	rep.metrics.Store(m)
	rep.metricsAt.Store(time.Now().UnixNano())
}

// score is the replica's load estimate for one model and the dispatch
// key of the least-loaded policy: requests the router currently has in
// flight on the replica (immediate, covers the window between metrics
// refreshes) plus the replica's last-reported admission-queue depth
// (covers load from other frontends). The queue-depth term is only
// trusted while the snapshot is fresh — within staleMetricsFactor
// probe intervals of its fetch; after that score degrades to
// inflight-only rather than ranking the replica on stale state.
func (rep *Replica) score(model string) float64 {
	s := float64(rep.inflight.Load())
	m := rep.metrics.Load()
	if m == nil {
		return s
	}
	if age := time.Now().UnixNano() - rep.metricsAt.Load(); age > int64(staleMetricsFactor*rep.pool.cfg.ProbeInterval) {
		return s
	}
	for _, mm := range m.Models {
		if mm.Model == model {
			s += float64(mm.QueueDepth)
			break
		}
	}
	return s
}

// noteError records a request/probe failure attributable to the
// replica. Crossing the consecutive-error threshold ejects it.
func (rep *Replica) noteError() {
	n := rep.consecErrs.Add(1)
	if int(n) >= rep.pool.cfg.EjectAfter {
		rep.eject()
	}
}

// noteSuccess records a successful round trip, closing the circuit:
// an ejected replica that answers (a half-open probe or a
// no-healthy-replica fallback request) is readmitted immediately.
func (rep *Replica) noteSuccess() {
	rep.consecErrs.Store(0)
	rep.state.Store(replicaHealthy)
}

// eject opens the circuit for a fresh ejection window.
func (rep *Replica) eject() {
	rep.ejectedUntil.Store(time.Now().Add(rep.pool.cfg.EjectionDuration).UnixNano())
	if rep.state.Swap(replicaEjected) != replicaEjected {
		rep.ejections.Add(1)
	}
}

// halfOpenDue reports whether the ejection window has lapsed, making
// the replica eligible for a recovery probe.
func (rep *Replica) halfOpenDue() bool {
	return rep.state.Load() == replicaEjected &&
		time.Now().UnixNano() >= rep.ejectedUntil.Load()
}

// ReplicaStatus is a point-in-time snapshot of one replica.
type ReplicaStatus struct {
	Name              string
	URL               string
	Healthy           bool
	Draining          bool
	ConsecutiveErrors int
	Ejections         int64
	Inflight          int64
	// QueueDepth sums the replica's last-reported per-model admission
	// queue depths (-1 when no metrics snapshot has been fetched yet).
	QueueDepth int64
}

func (rep *Replica) status() ReplicaStatus {
	st := ReplicaStatus{
		Name:              rep.Name,
		URL:               rep.URL,
		Healthy:           rep.Healthy(),
		Draining:          rep.Draining(),
		ConsecutiveErrors: int(rep.consecErrs.Load()),
		Ejections:         rep.ejections.Load(),
		Inflight:          rep.inflight.Load(),
		QueueDepth:        -1,
	}
	if m := rep.metrics.Load(); m != nil {
		st.QueueDepth = 0
		for _, mm := range m.Models {
			st.QueueDepth += mm.QueueDepth
		}
	}
	return st
}

// Pool is a health-checked replica set with mutable membership. It
// owns one goroutine per replica running periodic readiness probes and
// /v2/metrics refreshes, and serves load-aware replica picks to the
// Router. Members can be added and removed at runtime (the fleet
// control plane's lease registry does both under churn); removal stops
// the health loop and future picks but never touches requests already
// holding the replica.
type Pool struct {
	cfg PoolConfig
	// transport is shared by every per-replica client (fan-out reuses
	// one connection pool); the pool owns it and closes its idle
	// connections on Close.
	transport *http.Transport

	mu       sync.RWMutex
	replicas []*Replica // replaced wholesale on mutation; safe to iterate a snapshot
	added    int        // total Add calls, names anonymous replicas and assigns probe phases
	closed   bool

	stop      chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
}

// NewPool builds a pool over the given backend base URLs and starts
// its health loops. Every per-replica client shares one transport.
func NewPool(urls []string, cfg PoolConfig) (*Pool, error) {
	if len(urls) == 0 {
		return nil, fmt.Errorf("serve: pool needs at least one replica URL")
	}
	p := NewDynamicPool(cfg)
	for _, u := range urls {
		if _, err := p.Add("", u); err != nil {
			p.Close()
			return nil, err
		}
	}
	return p, nil
}

// NewDynamicPool builds an empty pool whose membership is managed at
// runtime via Add/Remove — the shape a fleet control plane needs,
// where replicas register and expire instead of being listed up front.
func NewDynamicPool(cfg PoolConfig) *Pool {
	cfg.fillDefaults()
	return &Pool{cfg: cfg, transport: NewTransport(), stop: make(chan struct{})}
}

// Add registers a new replica and starts its health loop. An empty
// name is assigned automatically ("r0", "r1", ...). Adding a name the
// pool already holds is an error (renewal is the registry's job, not
// the pool's).
func (p *Pool) Add(name, url string) (*Replica, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil, fmt.Errorf("serve: pool is closed")
	}
	if name == "" {
		name = fmt.Sprintf("r%d", p.added)
	}
	for _, rep := range p.replicas {
		if rep.Name == name {
			return nil, fmt.Errorf("serve: pool already has replica %q", name)
		}
	}
	rep := &Replica{
		Name: name,
		URL:  url,
		pool: p,
		done: make(chan struct{}),
		phase: p.cfg.ProbeInterval *
			time.Duration(p.added%probePhaseSlots) / probePhaseSlots,
		client: &Client{
			BaseURL: url,
			HTTP:    &http.Client{Transport: p.transport},
			// The router does its own failover and 429 spilling;
			// client-level retries would fight it.
			MaxRetries: -1,
		},
	}
	p.added++
	next := make([]*Replica, len(p.replicas)+1)
	copy(next, p.replicas)
	next[len(p.replicas)] = rep
	p.replicas = next
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		p.healthLoop(rep)
	}()
	return rep, nil
}

// Remove takes the named replica out of the pool: its health loop
// stops and it is never picked again. In-flight requests holding the
// replica finish normally (the client object outlives membership), so
// removing a live replica under traffic fails nothing.
func (p *Pool) Remove(name string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i, rep := range p.replicas {
		if rep.Name != name {
			continue
		}
		next := make([]*Replica, 0, len(p.replicas)-1)
		next = append(next, p.replicas[:i]...)
		next = append(next, p.replicas[i+1:]...)
		p.replicas = next
		close(rep.done)
		return true
	}
	return false
}

// snapshot returns the current member slice. The slice is replaced
// wholesale on every mutation, so iterating a snapshot is race-free.
func (p *Pool) snapshot() []*Replica {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.replicas
}

// Replicas returns the current pool members.
func (p *Pool) Replicas() []*Replica { return p.snapshot() }

// Size returns the current member count.
func (p *Pool) Size() int { return len(p.snapshot()) }

// Status snapshots every replica.
func (p *Pool) Status() []ReplicaStatus {
	reps := p.snapshot()
	out := make([]ReplicaStatus, len(reps))
	for i, rep := range reps {
		out[i] = rep.status()
	}
	return out
}

// HealthyCount counts replicas currently in dispatch rotation.
func (p *Pool) HealthyCount() int {
	n := 0
	for _, rep := range p.snapshot() {
		if rep.Healthy() && !rep.Draining() {
			n++
		}
	}
	return n
}

// Close stops the health loops, then closes the pool's idle
// connections: a replica's http.Server.Shutdown counts a connection
// that never carried a request as busy until it is 5 s old, so one
// left open would stall the replica's teardown that long. It does not
// touch the replicas otherwise. Safe to call concurrently and more
// than once.
func (p *Pool) Close() {
	p.closeOnce.Do(func() {
		p.mu.Lock()
		p.closed = true
		p.mu.Unlock()
		close(p.stop)
	})
	p.wg.Wait()
	p.transport.CloseIdleConnections()
}

// healthLoop probes one replica forever: readiness (+ metrics refresh)
// while healthy, and half-open recovery probes once an ejection window
// lapses. The loop starts at the replica's phase offset so probes
// spread across the interval instead of bursting in lockstep.
func (p *Pool) healthLoop(rep *Replica) {
	if rep.phase > 0 {
		t := time.NewTimer(rep.phase)
		select {
		case <-p.stop:
			t.Stop()
			return
		case <-rep.done:
			t.Stop()
			return
		case <-t.C:
		}
	}
	ticker := time.NewTicker(p.cfg.ProbeInterval)
	defer ticker.Stop()
	p.probe(rep)
	for {
		select {
		case <-p.stop:
			return
		case <-rep.done:
			return
		case <-ticker.C:
			p.probe(rep)
		}
	}
}

func (p *Pool) probe(rep *Replica) {
	if rep.state.Load() == replicaEjected && !rep.halfOpenDue() {
		return // sitting out its ejection window
	}
	ctx, cancel := context.WithTimeout(context.Background(), p.cfg.ProbeTimeout)
	defer cancel()
	if !rep.client.Ready(ctx) {
		if rep.state.Load() == replicaEjected {
			// Failed half-open probe: re-eject for a fresh window.
			rep.eject()
		} else {
			rep.noteError()
		}
		return
	}
	rep.noteSuccess()
	// Refresh the load snapshot feeding least-loaded dispatch. Best
	// effort: a stale snapshot only degrades placement, not health —
	// and score stops trusting it once it ages past the staleness
	// horizon.
	if m, err := rep.client.Metrics(ctx); err == nil {
		rep.storeMetrics(m)
	}
}

// pickBest applies the class placement policy over the replicas that
// pass the filter: latency-sensitive lanes (realtime, online) take the
// least-loaded candidate, offline takes the *most* loaded — drained
// and slow replicas soak up throughput-oriented batches, keeping the
// fast path clear for deadline traffic (the paper's §2.2 scenario
// split).
func pickBest(reps []*Replica, model string, class Class, ok func(*Replica) bool) *Replica {
	var best *Replica
	var bestScore float64
	for _, rep := range reps {
		if !ok(rep) {
			continue
		}
		s := rep.score(model)
		if best == nil ||
			(class == ClassOffline && s > bestScore) ||
			(class != ClassOffline && s < bestScore) {
			best, bestScore = rep, s
		}
	}
	return best
}

// pick selects the dispatch target for one request, skipping replicas
// the request already tried. Healthy non-draining replicas are
// preferred; with none left, draining replicas are used (they are
// alive, just being retired), and as a last resort any untried replica
// is returned — a success there readmits it (request-path half-open).
// The class placement policy applies at every tier: the fallback also
// sends offline work to the busiest candidate, so a no-healthy-replica
// window doesn't spill batch traffic onto the least-loaded replica
// that realtime retries are about to want.
func (p *Pool) pick(model string, class Class, tried map[*Replica]bool) *Replica {
	reps := p.snapshot()
	if best := pickBest(reps, model, class, func(rep *Replica) bool {
		return !tried[rep] && rep.Healthy() && !rep.Draining()
	}); best != nil {
		return best
	}
	if best := pickBest(reps, model, class, func(rep *Replica) bool {
		return !tried[rep] && rep.Healthy()
	}); best != nil {
		return best
	}
	return pickBest(reps, model, class, func(rep *Replica) bool {
		return !tried[rep]
	})
}
