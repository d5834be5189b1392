// Command harvest-serve runs the HARVEST inference server (the Triton
// analogue) over HTTP, hosting the four Table 3 models on a chosen
// platform model. On SIGINT/SIGTERM it shuts down gracefully: in-flight
// HTTP requests finish, queued batcher work is dispatched and served
// within the drain timeout, and the final per-model metrics are logged.
//
// Usage:
//
//	harvest-serve [flags]
//
// harvest-serve -h lists every flag with its default.
//
// With -fleet, the replica registers itself with a harvest-fleet
// control plane and renews its lease until shutdown, where it
// deregisters with drain before the HTTP server stops.
//
// With -stream, long-lived camera ingest sessions attach at
// POST /v2/streams/{camera}: framed frames up (a JSON header line,
// then the raw image), NDJSON per-frame outcomes down, with in-order
// enforcement, drop-stale admission against the frame budget, and a
// temporal dedup cache. Adding -offload-to makes the replica an edge
// tier: under queue (or power) pressure, admitted frames ship to the
// cloud tier over the modeled -offload-link.
package main

import (
	"flag"
	"log"
	"strings"
	"time"

	"harvest/internal/core"
	"harvest/internal/fleet"
	"harvest/internal/hw"
	"harvest/internal/pprofserve"
	"harvest/internal/serve"
	"harvest/internal/stream"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("harvest-serve: ")
	cfg := core.DeploymentConfig{
		Platform:      hw.KeyA100,
		TimeScale:     1,
		MaxQueueDepth: serve.DefaultMaxQueueDepth,
		Stream:        &core.StreamConfig{OffloadQueueThreshold: stream.DefaultQueueThreshold},
	}
	cfg.RegisterFlags(flag.CommandLine)
	var (
		addr      = flag.String("addr", ":8000", "listen address")
		modelsArg = flag.String("models", "", "comma-separated model names (default all four)")
		pprofAddr = flag.String("pprof-addr", "",
			"optional net/http/pprof listen address (e.g. localhost:6060); empty disables")
		fleetURL = flag.String("fleet", "",
			"fleet control plane base URL; the replica self-registers and renews a lease there (empty disables)")
		fleetName = flag.String("fleet-name", "",
			"lease name for -fleet registration (default host:port of -advertise)")
		advertise = flag.String("advertise", "",
			"base URL the fleet should route to (default http://127.0.0.1<addr> when -addr has no host)")
		streamEnable = flag.Bool("stream", false,
			"enable streaming camera ingest at POST /v2/streams/{camera} (requires -preproc: frames arrive as encoded images)")
	)
	flag.DurationVar(&cfg.QueueDelay, "queue-delay", 0, "dynamic batching window")
	flag.IntVar(&cfg.Instances, "instances", 1, "engine instances per model")
	flag.DurationVar(&cfg.DrainTimeout, "drain-timeout", serve.DefaultDrainTimeout,
		"how long shutdown serves already-queued requests before failing stragglers")
	flag.DurationVar(&cfg.RealtimeBudget, "realtime-slo", serve.DefaultRealtimeBudget,
		"implicit deadline for realtime-class requests (negative disables)")
	flag.IntVar(&cfg.TraceCapacity, "trace-cap", serve.DefaultTraceCapacity,
		"trace ring-buffer capacity for GET /v2/trace (negative disables)")
	flag.StringVar(&cfg.RealBackend, "real", "",
		"attach an executable compute backend at this precision (fp32, fp16, bf16 or int8): tensor inputs run real forward passes through the packed/quantized GEMM kernels; empty keeps simulation-only serving")
	flag.StringVar(&cfg.RealCheckpoint, "real-checkpoint", "",
		"load the -real backend's weights from this .hvt checkpoint (quantized at load into the -real precision) instead of random initialization; requires exactly one -models entry matching the checkpoint")
	flag.StringVar(&cfg.Stream.Model, "stream-model", "",
		"default model for ingest streams (default: the only served model; required with -stream when serving several)")
	flag.DurationVar(&cfg.Stream.Budget, "stream-budget", 0,
		"per-frame latency budget for ingest streams, counted from frame receipt (0 = the realtime SLO)")
	flag.StringVar(&cfg.Stream.OffloadTo, "offload-to", "",
		"cloud tier base URL (typically a harvest-router); when local queue or power pressure crosses its threshold, admitted frames ship there over the modeled -offload-link (empty disables offload)")
	flag.Float64Var(&cfg.Stream.OffloadPowerBudgetW, "offload-power-budget", 0,
		"edge power budget in watts; modeled draw above it also triggers offload (0 disables the power signal)")
	flag.Float64Var(&cfg.Stream.LinkTimeScale, "link-timescale", 1.0,
		"fraction of modeled uplink latency to really sleep (default 1.0 = full fidelity; negative = none)")
	flag.Parse()

	if !*streamEnable {
		cfg.Stream = nil
	}
	for t, q := range cfg.TenantQuotas {
		log.Printf("tenant quota: %s rate=%g/s burst=%g share=%g", t, q.RatePerSec, q.Burst, q.MaxQueueShare)
	}
	if *modelsArg != "" {
		for _, m := range strings.Split(*modelsArg, ",") {
			cfg.Models = append(cfg.Models, strings.TrimSpace(m))
		}
	}
	rep, err := core.NewReplica(cfg)
	if err != nil {
		log.Fatal(err)
	}
	srv := rep.Server
	for _, name := range srv.Models() {
		mc, err := srv.ModelConfigFor(name)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("registered %s (max batch %d, %d instance(s))", name, mc.MaxBatch, mc.Instances)
	}
	if cfg.Preproc != "" {
		log.Printf("encoded-image preprocessing enabled (%s engine)", cfg.Preproc)
	}
	switch {
	case cfg.RealCheckpoint != "":
		prec := cfg.RealBackend
		if prec == "" {
			prec = "fp32"
		}
		log.Printf("real compute backend attached (%s, weights from %s)", prec, cfg.RealCheckpoint)
	case cfg.RealBackend != "":
		// Loud on purpose: serving random weights looks healthy but
		// misreports accuracy; say so instead of leaving it implicit.
		log.Printf("real compute backend attached (%s, RANDOM weights — pass -real-checkpoint to serve trained weights)",
			cfg.RealBackend)
	}
	if cfg.Stream != nil {
		log.Printf("streaming ingest enabled at /v2/streams/{camera}")
		if cfg.Stream.OffloadTo != "" {
			log.Printf("offload enabled: cloud tier %s over %s (queue threshold %d)",
				cfg.Stream.OffloadTo, cfg.Stream.OffloadLink, cfg.Stream.OffloadQueueThreshold)
		}
	}
	if err := pprofserve.Listen(*pprofAddr); err != nil {
		log.Fatal(err)
	} else if *pprofAddr != "" {
		log.Printf("pprof on %s", *pprofAddr)
	}
	ep, err := serve.Listen(*addr, rep.Handler, cfg.DrainTimeout+5*time.Second)
	if err != nil {
		srv.Close()
		log.Fatal(err)
	}
	log.Printf("platform %s, serving on %s (JSON metrics at /v2/metrics, Prometheus at /metrics, trace at /v2/trace)",
		cfg.Platform, *addr)

	// Self-registration: hold a lease with the fleet control plane for
	// as long as we serve; on shutdown the agent deregisters with drain
	// so the router stops routing here before the HTTP drain begins.
	var agent *fleet.Agent
	if *fleetURL != "" {
		adv := *advertise
		if adv == "" {
			a := *addr
			if strings.HasPrefix(a, ":") {
				a = "127.0.0.1" + a
			}
			adv = "http://" + a
		}
		name := *fleetName
		if name == "" {
			name = strings.TrimPrefix(strings.TrimPrefix(adv, "http://"), "https://")
		}
		agent = &fleet.Agent{
			FleetURL: *fleetURL,
			Name:     name,
			URL:      adv,
			Platform: cfg.Platform,
			Logf:     log.Printf,
		}
		agent.Start()
		log.Printf("fleet: registering with %s as %q (advertising %s)", *fleetURL, name, adv)
	}

	if err := ep.AwaitSignal(); err != nil {
		srv.Close()
		log.Fatal(err)
	}
	if agent != nil {
		// Retire the lease first so new traffic stops arriving while
		// we drain what we have.
		if err := agent.Stop(); err != nil {
			log.Printf("fleet agent: %v", err)
		}
	}
	log.Printf("shutting down: draining HTTP then the batchers (timeout %s)", cfg.DrainTimeout)
	ep.Shutdown()
	srv.Close()
	for _, m := range srv.Metrics() {
		log.Printf("%s: requests=%d items=%d batches=%d errors=%d cancelled=%d shed=%d expired=%d "+
			"queue p50/p95/p99 = %.2f/%.2f/%.2f ms, compute p50/p95/p99 = %.2f/%.2f/%.2f ms",
			m.Model, m.Requests, m.Items, m.Batches, m.Errors, m.Cancelled, m.Shed, m.Expired,
			m.QueueMs.P50Ms, m.QueueMs.P95Ms, m.QueueMs.P99Ms,
			m.ComputeMs.P50Ms, m.ComputeMs.P95Ms, m.ComputeMs.P99Ms)
	}
}
