// Package fleet is the serving tier's control plane: replicas hold
// TTL leases in a Registry (register/renew/deregister instead of a
// static -replicas list), and a Controller autoscales the fleet by
// reading per-class SLO attainment from the router's merged metrics
// and consulting the queueing simulation (internal/scaleout) as
// a capacity oracle before acting — model-predictive autoscaling,
// licensed by scaleout.Validate's ≤0.9% sim-vs-real throughput
// agreement. Replicas are spawned and stopped through a pluggable
// Provisioner; the in-process LocalProvisioner launches
// core.StartReplica replicas (core deployments over loopback HTTP).
package fleet

import (
	"fmt"
	"sync"
	"time"

	"harvest/internal/serve"
)

// Registry defaults.
const (
	// DefaultTTL is the lease length granted when a registration does
	// not request one.
	DefaultTTL = 3 * time.Second
	// MinTTL/MaxTTL clamp requested lease lengths.
	MinTTL = 200 * time.Millisecond
	MaxTTL = time.Minute
	// DefaultDrainTimeout bounds how long a drain-aware deregistration
	// waits for in-flight requests before removing the replica anyway.
	DefaultDrainTimeout = 10 * time.Second
	// maxEvents bounds the registry's event ring for /v2/fleet/status.
	maxEvents = 256
)

// EventKind labels one membership transition.
type EventKind string

// Membership events.
const (
	EventRegister   EventKind = "register"
	EventRenew      EventKind = "renew"
	EventExpire     EventKind = "expire"
	EventDeregister EventKind = "deregister"
)

// Event records one membership transition for observability.
type Event struct {
	Kind EventKind `json:"kind"`
	Name string    `json:"name"`
	URL  string    `json:"url"`
	At   time.Time `json:"at"`
}

// Lease is one replica's registration snapshot.
type Lease struct {
	Name     string        `json:"name"`
	URL      string        `json:"url"`
	Platform string        `json:"platform,omitempty"`
	TTL      time.Duration `json:"-"`
	TTLMs    float64       `json:"ttl_ms"`
	Expires  time.Time     `json:"expires"`
	Draining bool          `json:"draining,omitempty"`
}

type lease struct {
	Lease
	rep *serve.Replica
}

// RegistryConfig tunes lease management.
type RegistryConfig struct {
	// DefaultTTL is granted when a registration requests no TTL
	// (default DefaultTTL).
	DefaultTTL time.Duration
	// SweepInterval is the expiry-scan period (default min(DefaultTTL/4,
	// 250ms)).
	SweepInterval time.Duration
	// DrainTimeout bounds drain-aware deregistration (default
	// DefaultDrainTimeout).
	DrainTimeout time.Duration
}

func (cfg *RegistryConfig) fillDefaults() {
	if cfg.DefaultTTL <= 0 {
		cfg.DefaultTTL = DefaultTTL
	}
	if cfg.SweepInterval <= 0 {
		cfg.SweepInterval = cfg.DefaultTTL / 4
		if cfg.SweepInterval > 250*time.Millisecond {
			cfg.SweepInterval = 250 * time.Millisecond
		}
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = DefaultDrainTimeout
	}
}

// Registry manages replica leases over a serve.Pool: registration adds
// a pool member, renewal extends its lease, TTL expiry removes it, and
// deregistration removes it immediately or after a drain. Removal
// never touches requests already dispatched to the replica — the pool
// keeps in-flight work alive — so lease churn under traffic fails
// nothing that was admitted.
type Registry struct {
	cfg  RegistryConfig
	pool *serve.Pool

	mu     sync.Mutex
	leases map[string]*lease
	events []Event

	stop chan struct{}
	once sync.Once
	wg   sync.WaitGroup
}

// NewRegistry builds a registry over the pool and starts its expiry
// sweeper. Callers must Close it.
func NewRegistry(pool *serve.Pool, cfg RegistryConfig) *Registry {
	cfg.fillDefaults()
	g := &Registry{
		cfg:    cfg,
		pool:   pool,
		leases: map[string]*lease{},
		stop:   make(chan struct{}),
	}
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		g.sweepLoop()
	}()
	return g
}

// Close stops the expiry sweeper. Leases and pool members are left in
// place (the pool's owner closes the pool).
func (g *Registry) Close() {
	g.once.Do(func() { close(g.stop) })
	g.wg.Wait()
}

func clampTTL(ttl, def time.Duration) time.Duration {
	switch {
	case ttl <= 0:
		return def
	case ttl < MinTTL:
		return MinTTL
	case ttl > MaxTTL:
		return MaxTTL
	}
	return ttl
}

func (g *Registry) note(kind EventKind, name, url string) {
	g.events = append(g.events, Event{Kind: kind, Name: name, URL: url, At: time.Now()})
	if len(g.events) > maxEvents {
		g.events = g.events[len(g.events)-maxEvents:]
	}
}

// Register grants or renews a lease. A fresh name joins the pool; a
// known name has its lease extended (re-registering a draining replica
// readmits it — the replica owner changed its mind about retiring). A
// known name at a *different* URL is replaced: the old pool member is
// removed and the new one registered.
func (g *Registry) Register(name, url, platform string, ttl time.Duration) (Lease, error) {
	if name == "" || url == "" {
		return Lease{}, fmt.Errorf("fleet: registration needs a name and a url")
	}
	ttl = clampTTL(ttl, g.cfg.DefaultTTL)
	g.mu.Lock()
	defer g.mu.Unlock()
	if l, ok := g.leases[name]; ok {
		if l.URL == url {
			l.TTL = ttl
			l.TTLMs = float64(ttl) / float64(time.Millisecond)
			l.Expires = time.Now().Add(ttl)
			if l.Draining {
				l.Draining = false
				l.rep.SetDraining(false)
			}
			if platform != "" {
				l.Platform = platform
			}
			g.note(EventRenew, name, url)
			return l.Lease, nil
		}
		// Same name, new address: the replica moved. Retire the old
		// member before admitting the new one.
		g.pool.Remove(name)
		delete(g.leases, name)
		g.note(EventDeregister, name, l.URL)
	}
	rep, err := g.pool.Add(name, url)
	if err != nil {
		return Lease{}, err
	}
	l := &lease{
		Lease: Lease{
			Name:     name,
			URL:      url,
			Platform: platform,
			TTL:      ttl,
			TTLMs:    float64(ttl) / float64(time.Millisecond),
			Expires:  time.Now().Add(ttl),
		},
		rep: rep,
	}
	g.leases[name] = l
	g.note(EventRegister, name, url)
	return l.Lease, nil
}

// Deregister removes a lease. With drain=false the replica leaves the
// pool immediately. With drain=true it is first marked draining (no
// new picks) and removed once its in-flight count reaches zero or the
// drain timeout lapses — the scale-down path that never fails an
// admitted request.
func (g *Registry) Deregister(name string, drain bool) error {
	g.mu.Lock()
	l, ok := g.leases[name]
	if !ok {
		g.mu.Unlock()
		return fmt.Errorf("fleet: no lease named %q", name)
	}
	if !drain {
		delete(g.leases, name)
		g.pool.Remove(name)
		g.note(EventDeregister, name, l.URL)
		g.mu.Unlock()
		return nil
	}
	if l.Draining {
		g.mu.Unlock()
		return nil // drain already under way
	}
	l.Draining = true
	l.rep.SetDraining(true)
	g.mu.Unlock()

	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		deadline := time.Now().Add(g.cfg.DrainTimeout)
		for l.rep.Inflight() > 0 && time.Now().Before(deadline) {
			select {
			case <-g.stop:
				return
			case <-time.After(5 * time.Millisecond):
			}
		}
		g.mu.Lock()
		defer g.mu.Unlock()
		if cur, ok := g.leases[name]; ok && cur == l && cur.Draining {
			delete(g.leases, name)
			g.pool.Remove(name)
			g.note(EventDeregister, name, l.URL)
		}
	}()
	return nil
}

// Leases snapshots every active lease, registration-order-free.
func (g *Registry) Leases() []Lease {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]Lease, 0, len(g.leases))
	for _, l := range g.leases {
		out = append(out, l.Lease)
	}
	return out
}

// Events returns the recent membership transitions (bounded ring).
func (g *Registry) Events() []Event {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]Event(nil), g.events...)
}

// sweepLoop removes expired leases. Expiry is abrupt by design — a
// replica that stops renewing is presumed dead — but pool removal
// still leaves in-flight requests to finish or fail over, so admitted
// work survives the eviction.
func (g *Registry) sweepLoop() {
	ticker := time.NewTicker(g.cfg.SweepInterval)
	defer ticker.Stop()
	for {
		select {
		case <-g.stop:
			return
		case <-ticker.C:
			now := time.Now()
			g.mu.Lock()
			for name, l := range g.leases {
				if now.After(l.Expires) {
					delete(g.leases, name)
					g.pool.Remove(name)
					g.note(EventExpire, name, l.URL)
				}
			}
			g.mu.Unlock()
		}
	}
}
