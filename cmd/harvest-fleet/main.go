// Command harvest-fleet is the serving tier's control plane: a
// dynamic router whose replica set is lease-managed (replicas register
// via POST /v2/fleet/register and renew until they deregister or their
// TTL expires) plus an SLO-driven autoscaler that consults the
// discrete-event simulation as a capacity oracle before scaling.
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
//	harvest-fleet [-addr :8200] [-model ViT_Base] [-platform Jetson]
//	              [-min 1] [-max 4] [-interval 2s] [-slo 100ms]
//	              [-slo-class online] [-lease-ttl 3s] [-local]
//	              [-timescale 1.0] [-max-queue-depth 1024]
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net"
	"net/http"
	"os/signal"
	"syscall"
	"time"

	"harvest/internal/core"
	"harvest/internal/fleet"
	"harvest/internal/hw"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("harvest-fleet: ")
	var (
		cfg     fleet.ControlPlaneConfig
		replica core.DeploymentConfig // shape of -local launches
		ctl     = &cfg.Controller
		addr    = flag.String("addr", ":8200", "listen address (control plane + routed data plane)")
		local   = flag.Bool("local", false, "launch in-process replicas instead of waiting for external registrations")
	)
	flag.StringVar(&replica.Platform, "platform", hw.KeyJetson, "replica platform the oracle prices (and -local launches)")
	flag.StringVar(&ctl.Model, "model", "ViT_Base", "model whose demand drives autoscaling")
	flag.IntVar(&ctl.Min, "min", 1, "fleet size floor")
	flag.IntVar(&ctl.Max, "max", 4, "fleet size ceiling")
	flag.DurationVar(&ctl.Interval, "interval", 2*time.Second, "autoscaler tick period")
	flag.DurationVar(&ctl.SLO, "slo", 100*time.Millisecond, "per-request queue-wait SLO the controller sizes for")
	flag.StringVar(&ctl.SLOClass, "slo-class", "online", "class whose SLO attainment the controller watches")
	flag.DurationVar(&cfg.LeaseTTL, "lease-ttl", fleet.DefaultTTL, "default replica lease TTL")
	flag.Float64Var(&replica.TimeScale, "timescale", 1.0, "local replicas: fraction of modeled latency to really sleep")
	flag.IntVar(&replica.MaxQueueDepth, "max-queue-depth", 0, "local replicas: admission queue bound (0 = server default)")
	flag.Parse()

	ctl.Oracle.Platforms = []string{replica.Platform}
	ctl.Logf = log.Printf
	if *local {
		replica.Models = []string{ctl.Model}
		cfg.Local = &replica
	}
	cp := fleet.NewControlPlane(cfg)
	defer cp.Close()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	selfURL := "http://" + ln.Addr().String()
	httpSrv := &http.Server{
		Handler:           cp.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	if err := cp.Start(ctx, selfURL); err != nil {
		log.Fatal(err)
	}
	mode := "advisory (external replicas register via -fleet)"
	if *local {
		mode = "local (in-process replicas)"
	}
	log.Printf("control plane on %s: model %s, platform %s, fleet [%d..%d], tick %s, SLO %s/%s, mode %s",
		selfURL, ctl.Model, replica.Platform, ctl.Min, ctl.Max, ctl.Interval, ctl.SLO, ctl.SLOClass, mode)

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()
	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
	}
	stop()
	log.Printf("shutting down")
	shutCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("http shutdown: %v", err)
	}
	for _, d := range cp.Controller.Decisions() {
		log.Printf("decision %s: %s (%d→%d, %.1f rps, attain %.2f)",
			d.At.Format(time.RFC3339), d.Reason, d.From, d.To, d.ArrivalRPS, d.Attainment)
	}
}
