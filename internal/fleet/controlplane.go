package fleet

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"harvest/internal/core"
	"harvest/internal/serve"
)

// ControlPlaneConfig describes a lease-managed, autoscaled serving
// tier: what `harvest-fleet` runs and `harvest-loadgen -fleet-max`
// self-hosts.
type ControlPlaneConfig struct {
	// Controller tunes the autoscaler: the model whose demand it
	// tracks, the [Min, Max] bounds, tick and SLO.
	Controller ControllerConfig
	// LeaseTTL is the registry's default lease length and the TTL
	// local replicas request (0 = DefaultTTL).
	LeaseTTL time.Duration
	// Router configures the dynamic router replicas register into.
	Router serve.RouterConfig
	// Replica is the fleet's replica shape. Its Platform is the one
	// platform the oracle prices and Local launches; Models defaults
	// to the controller's model.
	Replica core.DeploymentConfig
	// Local makes the controller launch and retire in-process replicas
	// of the Replica shape. Without it the control plane is advisory:
	// replicas are external processes registering via the Agent
	// protocol, and the controller only records what it would do.
	Local bool
}

// ControlPlane is a running control plane. One handler serves both
// planes: /v2/fleet/* is the control plane, everything else the
// router's data plane.
type ControlPlane struct {
	Router     *serve.Router
	Registry   *Registry
	Controller *Controller
	// Provisioner owns the in-process replicas (nil in advisory mode).
	Provisioner *LocalProvisioner
}

// floorReadyTimeout bounds Start's wait for the local floor replicas.
const floorReadyTimeout = 30 * time.Second

// NewControlPlane composes dynamic router, lease registry, provisioner
// and controller. Serve Handler, then Start; callers must Close it.
func NewControlPlane(cfg ControlPlaneConfig) *ControlPlane {
	cp := &ControlPlane{Router: serve.NewDynamicRouter(cfg.Router)}
	cp.Registry = NewRegistry(cp.Router.Pool(), cfg.LeaseTTL)
	if cfg.Local {
		if len(cfg.Replica.Models) == 0 {
			cfg.Replica.Models = []string{cfg.Controller.Model}
		}
		cp.Provisioner = &LocalProvisioner{
			Replica: cfg.Replica,
			TTL:     cfg.LeaseTTL,
			Logf:    cfg.Controller.Logf,
		}
	}
	cp.Controller = NewController(cp.Router, cp.Registry, cp.Provisioner, cfg.Replica.Platform, cfg.Controller)
	return cp
}

// Handler serves /v2/fleet/* and the routed data plane.
func (cp *ControlPlane) Handler() http.Handler {
	return Handler(cp.Registry, cp.Controller, cp.Router.Handler())
}

// Start launches the Min-replica floor and the control loop. url is
// where Handler is being served: local replicas register there, and
// Start returns once the floor replicas hold leases and pass health
// probes (a lease alone does not take traffic).
func (cp *ControlPlane) Start(ctx context.Context, url string) error {
	if cp.Provisioner == nil {
		return cp.Controller.Start()
	}
	cp.Provisioner.FleetURL = url
	ctx, cancel := context.WithTimeout(ctx, floorReadyTimeout)
	defer cancel()
	if err := cp.Controller.Start(); err != nil {
		return err
	}
	floor := cp.Controller.cfg.Min
	for len(cp.Registry.Leases()) < floor || cp.Router.Pool().HealthyCount() < floor {
		if ctx.Err() != nil {
			return fmt.Errorf("fleet: local floor (%d replicas) not ready in %s", floor, floorReadyTimeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
	return nil
}

// Close tears the tier down: controller first (no further scaling),
// then the replicas, then the registry and router.
func (cp *ControlPlane) Close() {
	cp.Controller.Close()
	if cp.Provisioner != nil {
		cp.Provisioner.Close()
	}
	cp.Registry.Close()
	cp.Router.Close()
}
