package loadgen

import (
	"context"
	"fmt"
	"time"

	"harvest/internal/fleet"
	"harvest/internal/serve"
)

// ManagedFleet is a self-hosted *autoscaled* system under test: a
// fleet.ControlPlane with in-process replicas (cfg.Local) on a
// loopback listener instead of a fixed -spawn count. `make bench-fleet`
// drives one of these through a load step and replica churn.
type ManagedFleet struct {
	*fleet.ControlPlane
	// URL serves both planes: /v2/fleet/* (control) and everything else
	// (the router's data plane) — the loadgen target.
	URL string

	endpoint *serve.Endpoint
}

// StartManagedFleet stands the tier up and blocks until the Min-floor
// replicas hold leases and pass health probes. Callers must Close it.
func StartManagedFleet(cfg fleet.ControlPlaneConfig) (*ManagedFleet, error) {
	if cfg.Router.Pool.ProbeInterval == 0 {
		cfg.Router.Pool.ProbeInterval = 20 * time.Millisecond
	}
	cp := fleet.NewControlPlane(cfg)
	ep, err := serve.ListenLoopback(cp.Handler())
	if err != nil {
		cp.Close()
		return nil, err
	}
	mf := &ManagedFleet{ControlPlane: cp, URL: ep.URL, endpoint: ep}

	startCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := cp.Start(startCtx, ep.URL); err != nil {
		mf.Close()
		return nil, err
	}
	// Ready means the floor replicas registered AND pass probes: a lease
	// alone does not take traffic.
	floor := max(cfg.Controller.Min, 1)
	for len(cp.Registry.Leases()) < floor || cp.Router.Pool().HealthyCount() < floor {
		if startCtx.Err() != nil {
			mf.Close()
			return nil, fmt.Errorf("loadgen: managed fleet floor (%d replicas) not ready in 30s", floor)
		}
		time.Sleep(5 * time.Millisecond)
	}
	return mf, nil
}

// KillOne abruptly kills one provisioner-owned replica — no
// deregistration, no drain, connections reset — and returns its lease
// name. The control plane finds out through probes and TTL expiry.
func (m *ManagedFleet) KillOne() (string, error) {
	urls := m.Provisioner.URLs()
	if len(urls) == 0 {
		return "", fmt.Errorf("loadgen: no replica to kill")
	}
	return m.Provisioner.Kill(urls[len(urls)-1])
}

// FleetReport snapshots the control plane's decision and event logs.
func (m *ManagedFleet) FleetReport() *FleetReport {
	return &FleetReport{
		Decisions: m.Controller.Decisions(),
		Events:    m.Registry.Events(),
	}
}

// Close tears the tier down: the control plane (replicas deregister
// over HTTP, so its listener is still up), then the listener.
func (m *ManagedFleet) Close() {
	m.ControlPlane.Close()
	m.endpoint.Shutdown()
}
