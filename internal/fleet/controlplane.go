package fleet

import (
	"context"
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
	// tracks, the platforms its oracle prices, the [Min, Max] bounds,
	// tick and SLO.
	Controller ControllerConfig
	// LeaseTTL is the registry's default lease length and the TTL
	// local replicas request (0 = DefaultTTL).
	LeaseTTL time.Duration
	// Router configures the dynamic router replicas register into.
	Router serve.RouterConfig
	// Local, when non-nil, makes the controller launch and retire
	// in-process replicas of this shape (Platform is set per launch
	// from the oracle's choice). Nil is advisory mode: replicas are
	// external processes registering via the Agent protocol, and the
	// controller only records what it would do.
	Local *core.DeploymentConfig
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

// NewControlPlane composes dynamic router, lease registry, provisioner
// and controller. Serve Handler, then Start; callers must Close it.
func NewControlPlane(cfg ControlPlaneConfig) *ControlPlane {
	cp := &ControlPlane{Router: serve.NewDynamicRouter(cfg.Router)}
	cp.Registry = NewRegistry(cp.Router.Pool(), cfg.LeaseTTL)
	var prov Provisioner
	if cfg.Local != nil {
		cp.Provisioner = &LocalProvisioner{
			Replica: *cfg.Local,
			TTL:     cfg.LeaseTTL,
			Logf:    cfg.Controller.Logf,
		}
		prov = cp.Provisioner
	}
	cp.Controller = NewController(cp.Router, cp.Registry, prov, cfg.Controller)
	return cp
}

// Handler serves /v2/fleet/* and the routed data plane.
func (cp *ControlPlane) Handler() http.Handler {
	return Handler(cp.Registry, cp.Controller, cp.Router.Handler())
}

// Start launches the Min-replica floor and the control loop. url is
// where Handler is being served: local replicas register there.
func (cp *ControlPlane) Start(ctx context.Context, url string) error {
	if cp.Provisioner != nil {
		cp.Provisioner.FleetURL = url
	}
	return cp.Controller.Start(ctx)
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
