// Command harvest-serve runs the HARVEST inference server (the Triton
// analogue) over HTTP, hosting the four Table 3 models on a chosen
// platform model. On SIGINT/SIGTERM it shuts down gracefully: in-flight
// HTTP requests finish, queued batcher work is dispatched and served
// within the drain timeout, and the final per-model metrics are logged.
//
// Usage:
//
//	harvest-serve [-addr :8000] [-platform A100|V100|Jetson]
//	              [-models ViT_Tiny,ResNet50] [-queue-delay 2ms]
//	              [-instances 1] [-timescale 1.0] [-drain-timeout 5s]
//	              [-max-queue-depth 1024] [-realtime-slo 16.7ms]
//	              [-read-header-timeout 5s] [-trace-cap 4096]
//	              [-pprof-addr localhost:6060]
//	              [-preproc cpu|cv2] [-preproc-workers 0]
//	              [-fleet http://cp:8200] [-fleet-name edge-1]
//	              [-fleet-ttl 3s] [-advertise http://10.0.0.5:8000]
//	              [-real int8] [-real-seed 1] [-real-checkpoint model.hvt]
//	              [-stream] [-stream-model ViT_Tiny] [-stream-budget 16.7ms]
//	              [-offload-to http://router:8100] [-offload-link 5g]
//	              [-offload-chunk-bytes 65536] [-offload-queue-threshold 4]
//	              [-offload-power-budget 12] [-link-timescale 1.0]
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
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os/signal"
	"strings"
	"syscall"
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
	cfg := core.DeploymentConfig{Stream: &core.StreamConfig{}}
	var (
		addr              = flag.String("addr", ":8000", "listen address")
		modelsArg         = flag.String("models", "", "comma-separated model names (default all four)")
		readHeaderTimeout = flag.Duration("read-header-timeout", 5*time.Second,
			"per-connection header read timeout (slowloris guard)")
		pprofAddr = flag.String("pprof-addr", "",
			"optional net/http/pprof listen address (e.g. localhost:6060); empty disables")
		fleetURL = flag.String("fleet", "",
			"fleet control plane base URL; the replica self-registers and renews a lease there (empty disables)")
		fleetName = flag.String("fleet-name", "",
			"lease name for -fleet registration (default host:port of -advertise)")
		fleetTTL = flag.Duration("fleet-ttl", 0,
			"requested lease TTL for -fleet registration (0 = registry default)")
		advertise = flag.String("advertise", "",
			"base URL the fleet should route to (default http://127.0.0.1<addr> when -addr has no host)")
		streamEnable = flag.Bool("stream", false,
			"enable streaming camera ingest at POST /v2/streams/{camera} (requires -preproc: frames arrive as encoded images)")
	)
	flag.StringVar(&cfg.Platform, "platform", hw.KeyA100, "platform model: A100, V100 or Jetson")
	flag.DurationVar(&cfg.QueueDelay, "queue-delay", 2*time.Millisecond, "dynamic batching window")
	flag.IntVar(&cfg.Instances, "instances", 1, "engine instances per model")
	flag.Float64Var(&cfg.TimeScale, "timescale", 1.0, "fraction of modeled latency to really sleep (0 = none)")
	flag.DurationVar(&cfg.DrainTimeout, "drain-timeout", serve.DefaultDrainTimeout,
		"how long shutdown serves already-queued requests before failing stragglers")
	flag.IntVar(&cfg.MaxQueueDepth, "max-queue-depth", serve.DefaultMaxQueueDepth,
		"per-model admission queue bound; a full queue sheds with HTTP 429")
	flag.DurationVar(&cfg.RealtimeBudget, "realtime-slo", serve.DefaultRealtimeBudget,
		"implicit deadline for realtime-class requests (negative disables)")
	flag.IntVar(&cfg.TraceCapacity, "trace-cap", serve.DefaultTraceCapacity,
		"trace ring-buffer capacity for GET /v2/trace (negative disables)")
	flag.StringVar(&cfg.Preproc, "preproc", "",
		"accept encoded images (images_b64) on /v2/infer, preprocessed by this engine: cpu (PyTorch-style) or cv2; empty disables")
	flag.IntVar(&cfg.PreprocWorkers, "preproc-workers", 0,
		"decode/resize worker-pool size shared across models (0 = one per CPU)")
	flag.StringVar(&cfg.RealBackend, "real", "",
		"attach an executable compute backend at this precision (fp32, fp16, bf16 or int8): tensor inputs run real forward passes through the packed/quantized GEMM kernels; empty keeps simulation-only serving")
	flag.Uint64Var(&cfg.RealSeed, "real-seed", 1, "weight-init seed for the -real backend")
	flag.StringVar(&cfg.RealCheckpoint, "real-checkpoint", "",
		"load the -real backend's weights from this .hvt checkpoint (quantized at load into the -real precision) instead of random initialization; requires exactly one -models entry matching the checkpoint")
	flag.StringVar(&cfg.Stream.Model, "stream-model", "",
		"default model for ingest streams (default: the only served model; required with -stream when serving several)")
	flag.DurationVar(&cfg.Stream.Budget, "stream-budget", 0,
		"per-frame latency budget for ingest streams, counted from frame receipt (0 = the realtime SLO)")
	flag.StringVar(&cfg.Stream.OffloadTo, "offload-to", "",
		"cloud tier base URL (typically a harvest-router); when local queue or power pressure crosses its threshold, admitted frames ship there over the modeled -offload-link (empty disables offload)")
	flag.StringVar(&cfg.Stream.OffloadLink, "offload-link", "5g",
		"edge-to-cloud uplink model for -offload-to: wifi, 5g, lte or satellite")
	flag.IntVar(&cfg.Stream.OffloadChunkBytes, "offload-chunk-bytes", 64<<10,
		"uplink message size for per-message protocol overhead accounting (0 = one message per frame)")
	flag.IntVar(&cfg.Stream.OffloadQueueThreshold, "offload-queue-threshold", stream.DefaultQueueThreshold,
		"local queue depth at which frames start offloading to -offload-to")
	flag.Float64Var(&cfg.Stream.OffloadPowerBudgetW, "offload-power-budget", 0,
		"edge power budget in watts; modeled draw above it also triggers offload (0 disables the power signal)")
	flag.Float64Var(&cfg.Stream.LinkTimeScale, "link-timescale", 1.0,
		"fraction of modeled uplink latency to really sleep (default 1.0 = full fidelity; negative = none)")
	flag.IntVar(&cfg.TenantQuantum, "tenant-quantum", 0,
		"deficit-round-robin quantum in request-items for per-tenant fair scheduling (0 = default)")
	flag.IntVar(&cfg.AntiStarveEvery, "anti-starve-every", 0,
		"guarantee lower-priority lanes one dispatch every N polls under saturating higher-priority load (0 = default, negative disables)")
	flag.Var((*serve.TenantQuotaFlag)(&cfg.TenantQuotas), "tenant-quota",
		"per-tenant quota spec, repeatable: tenant:rate=R[,burst=B][,share=S] (\"*\" = wildcard for unlisted tenants)")
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
		log.Printf("real compute backend attached (%s, RANDOM weights from seed %d — pass -real-checkpoint to serve trained weights)",
			cfg.RealBackend, cfg.RealSeed)
	}
	if cfg.Stream != nil {
		log.Printf("streaming ingest enabled at /v2/streams/{camera}")
		if cfg.Stream.OffloadTo != "" {
			log.Printf("offload enabled: cloud tier %s over %s (queue threshold %d)",
				cfg.Stream.OffloadTo, cfg.Stream.OffloadLink, cfg.Stream.OffloadQueueThreshold)
		}
	}
	log.Printf("platform %s, serving on %s (JSON metrics at /v2/metrics, Prometheus at /metrics, trace at /v2/trace)",
		cfg.Platform, *addr)
	pprofserve.Start(*pprofAddr, func(err error) { log.Printf("pprof: %v", err) })
	if *pprofAddr != "" {
		log.Printf("pprof on %s", *pprofAddr)
	}

	// Bound header reads and idle keep-alives so stalled connections
	// (slowloris) cannot exhaust the listener; request bodies stay
	// unbounded in time because infer requests legitimately queue.
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           rep.Handler,
		ReadHeaderTimeout: *readHeaderTimeout,
		IdleTimeout:       2 * time.Minute,
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()

	// Self-registration: hold a lease with the fleet control plane for
	// as long as we serve; on shutdown the agent deregisters with drain
	// so the router stops routing here before the HTTP drain begins.
	var agentDone chan struct{}
	var agentCancel context.CancelFunc
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
		agent := &fleet.Agent{
			FleetURL: *fleetURL,
			Name:     name,
			URL:      adv,
			Platform: cfg.Platform,
			TTL:      *fleetTTL,
			Logf:     log.Printf,
		}
		var agentCtx context.Context
		agentCtx, agentCancel = context.WithCancel(context.Background())
		agentDone = make(chan struct{})
		go func() {
			defer close(agentDone)
			if err := agent.Run(agentCtx); err != nil && !errors.Is(err, context.Canceled) {
				log.Printf("fleet agent: %v", err)
			}
		}()
		log.Printf("fleet: registering with %s as %q (advertising %s)", *fleetURL, name, adv)
	}

	select {
	case err := <-errc:
		srv.Close()
		log.Fatal(err)
	case <-ctx.Done():
	}
	stop()
	if agentCancel != nil {
		// Retire the lease first (deregister + drain) so new traffic
		// stops arriving while we drain what we have.
		agentCancel()
		<-agentDone
	}
	log.Printf("shutting down: draining HTTP then the batchers (timeout %s)", cfg.DrainTimeout)
	shutCtx, cancel := context.WithTimeout(context.Background(), cfg.DrainTimeout+5*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("http shutdown: %v", err)
	}
	srv.Close()
	for _, m := range srv.Metrics() {
		log.Printf("%s: requests=%d items=%d batches=%d errors=%d cancelled=%d shed=%d expired=%d "+
			"queue p50/p95/p99 = %.2f/%.2f/%.2f ms, compute p50/p95/p99 = %.2f/%.2f/%.2f ms",
			m.Model, m.Requests, m.Items, m.Batches, m.Errors, m.Cancelled, m.Shed, m.Expired,
			m.QueueMs.P50Ms, m.QueueMs.P95Ms, m.QueueMs.P99Ms,
			m.ComputeMs.P50Ms, m.ComputeMs.P95Ms, m.ComputeMs.P99Ms)
	}
}
