// Command harvest-router runs the replica-pool router: a
// health-checked load balancer over multiple harvest-serve backends,
// exposing the same /v2/* surface as a single server so any client of
// harvest-serve works unchanged against it. Placement is
// queue-depth-aware and scenario-class-aware (realtime to the
// least-loaded replica, offline spilled to busy/draining ones),
// failing replicas are ejected after consecutive errors and readmitted
// via half-open probes, and in-flight requests fail over to surviving
// replicas.
//
// Camera ingest streams (POST /v2/streams/{camera}) proxy through with
// per-camera replica affinity: each camera consistently hashes onto a
// healthy replica, which owns the stream's ordering state and dedup
// cache; stream responses flush per outcome line, not per buffer.
//
// Usage:
//
//	harvest-router -replicas http://127.0.0.1:8000,http://127.0.0.1:8001 [flags]
//
// harvest-router -h lists every flag with its default.
package main

import (
	"context"
	"flag"
	"log"
	"strings"
	"time"

	"harvest/internal/core"
	"harvest/internal/pprofserve"
	"harvest/internal/serve"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("harvest-router: ")
	var (
		addr          = flag.String("addr", ":8100", "listen address")
		replicasArg   = flag.String("replicas", "", "comma-separated replica base URLs (required)")
		probeInterval = flag.Duration("probe-interval", serve.DefaultProbeInterval,
			"period of per-replica readiness probes and metrics refreshes")
		ejectAfter = flag.Int("eject-after", serve.DefaultEjectAfter,
			"consecutive errors before a replica is ejected")
		ejectionDuration = flag.Duration("ejection-duration", serve.DefaultEjectionDuration,
			"how long an ejected replica sits out before a half-open recovery probe")
		drainTimeout = flag.Duration("drain-timeout", serve.DefaultDrainTimeout,
			"how long shutdown waits for in-flight proxied requests")
		traceCap = flag.Int("trace-cap", serve.DefaultTraceCapacity,
			"trace ring-buffer capacity for GET /v2/trace (negative disables)")
		pprofAddr = flag.String("pprof-addr", "",
			"optional net/http/pprof listen address (e.g. localhost:6061); empty disables")
		maxBodyBytes = flag.Int64("max-body-bytes", 0,
			"request-body cap before proxying; raise for large base64 image batches (0 = 64 MiB default, negative disables)")
	)
	// The router meters the replicas' tenant quotas, at fleet-aggregate
	// rates: rejects are answered here, before any replica is tried.
	var quotas core.DeploymentConfig
	quotas.RegisterFlags(flag.CommandLine, "tenant-quota")
	flag.Parse()

	var urls []string
	for _, u := range strings.Split(*replicasArg, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, u)
		}
	}
	if len(urls) == 0 {
		log.Fatal("no replicas: pass -replicas http://host:port[,http://host:port...]")
	}
	router, err := serve.NewRouter(urls, serve.RouterConfig{
		Pool: serve.PoolConfig{
			ProbeInterval:    *probeInterval,
			EjectAfter:       *ejectAfter,
			EjectionDuration: *ejectionDuration,
		},
		DrainTimeout:  *drainTimeout,
		TraceCapacity: *traceCap,
		MaxBodyBytes:  *maxBodyBytes,
		TenantQuotas:  quotas.TenantQuotas,
	})
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("routing across %d replica(s): %s", len(urls), strings.Join(urls, ", "))
	if err := pprofserve.Listen(*pprofAddr); err != nil {
		log.Fatal(err)
	} else if *pprofAddr != "" {
		log.Printf("pprof on %s", *pprofAddr)
	}
	ep, err := serve.Listen(*addr, router.Handler(), *drainTimeout+5*time.Second)
	if err != nil {
		router.Close()
		log.Fatal(err)
	}
	log.Printf("serving on %s (aggregated JSON metrics at /v2/metrics, Prometheus at /metrics, trace at /v2/trace)", *addr)
	if err := ep.AwaitSignal(); err != nil {
		router.Close()
		log.Fatal(err)
	}
	log.Printf("shutting down: draining HTTP then in-flight routed requests (timeout %s)", *drainTimeout)
	ep.Shutdown()
	met := router.Metrics(context.Background())
	router.Close()
	log.Printf("router: requests=%d errors=%d failovers=%d spills=%d healthy=%d/%d, "+
		"latency p50/p95/p99 = %.2f/%.2f/%.2f ms",
		met.Router.Requests, met.Router.Errors, met.Router.Failovers, met.Router.Spills,
		met.Router.HealthyReplicas, len(met.Router.Replicas),
		met.Router.LatencyMs.P50Ms, met.Router.LatencyMs.P95Ms, met.Router.LatencyMs.P99Ms)
	for _, m := range met.Models {
		log.Printf("%s (all replicas): requests=%d items=%d batches=%d errors=%d shed=%d expired=%d",
			m.Model, m.Requests, m.Items, m.Batches, m.Errors, m.Shed, m.Expired)
	}
}
