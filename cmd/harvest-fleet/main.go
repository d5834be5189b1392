// Command harvest-fleet is the serving tier's control plane: a
// dynamic router whose replica set is lease-managed (replicas register
// via POST /v2/fleet/register and renew until they deregister or their
// TTL expires) plus an SLO-driven autoscaler that consults the
// queueing simulation as a capacity oracle before scaling.
//
// One listener serves both planes: /v2/fleet/* is the control plane,
// everything else is the router's data plane (/v2/infer, /v2/metrics,
// /metrics, /v2/trace).
//
// Two modes:
//
//   - Advisory (default): replicas are external harvest-serve
//     processes started with -fleet pointing here. The autoscaler logs
//     what it *would* do (GET /v2/fleet/status shows decisions), but
//     only acts on membership through leases.
//
//   - Local (-local): the controller launches and retires in-process
//     replicas itself, bounded by [-min, -max] — a self-contained
//     autoscaled tier for experiments.
//
// Usage:
//
//	harvest-fleet [flags]
//
// harvest-fleet -h lists every flag with its default.
package main

import (
	"context"
	"flag"
	"log"
	"time"

	"harvest/internal/core"
	"harvest/internal/fleet"
	"harvest/internal/hw"
	"harvest/internal/serve"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("harvest-fleet: ")
	var (
		// cfg.Replica is the shape of -local launches; its platform is
		// also the one the oracle prices.
		cfg  = fleet.ControlPlaneConfig{Replica: core.DeploymentConfig{Platform: hw.KeyJetson, TimeScale: 1}}
		ctl  = &cfg.Controller
		addr = flag.String("addr", ":8200", "listen address (control plane + routed data plane)")
	)
	cfg.Replica.RegisterFlags(flag.CommandLine, "platform", "timescale", "max-queue-depth")
	flag.BoolVar(&cfg.Local, "local", false, "launch in-process replicas instead of waiting for external registrations")
	flag.StringVar(&ctl.Model, "model", "ViT_Base", "model whose demand drives autoscaling")
	flag.IntVar(&ctl.Min, "min", 1, "fleet size floor")
	flag.IntVar(&ctl.Max, "max", 4, "fleet size ceiling")
	flag.DurationVar(&ctl.SLO, "slo", 100*time.Millisecond, "per-request queue-wait SLO the controller sizes for")
	flag.DurationVar(&cfg.LeaseTTL, "lease-ttl", fleet.DefaultTTL, "default replica lease TTL")
	flag.Parse()

	ctl.Logf = log.Printf
	cp := fleet.NewControlPlane(cfg)
	ep, err := serve.Listen(*addr, cp.Handler(), 15*time.Second)
	if err != nil {
		log.Fatal(err)
	}
	if err := cp.Start(context.Background(), ep.URL); err != nil {
		log.Fatal(err)
	}
	mode := "advisory (external replicas register via -fleet)"
	if cfg.Local {
		mode = "local (in-process replicas)"
	}
	log.Printf("control plane on %s: model %s, platform %s, fleet [%d..%d], SLO %s, mode %s",
		ep.URL, ctl.Model, cfg.Replica.Platform, ctl.Min, ctl.Max, ctl.SLO, mode)
	if err := ep.AwaitSignal(); err != nil {
		log.Fatal(err)
	}
	log.Printf("shutting down")
	// The control plane goes first: -local replicas deregister over
	// HTTP, so the listener must still be up; the router it closes
	// waits out in-flight proxied requests.
	cp.Close()
	ep.Shutdown()
	for _, d := range cp.Controller.Decisions() {
		log.Printf("decision %s: %s (%d→%d, %.1f rps, attain %.2f)",
			d.At.Format(time.RFC3339), d.Reason, d.From, d.To, d.ArrivalRPS, d.Attainment)
	}
}
