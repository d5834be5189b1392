// Command harvest-loadgen is the coordinated-omission-safe load
// harness: it drives a live harvest-serve or harvest-router endpoint
// with mixed scenario-class traffic (open-loop Poisson schedules
// and/or closed-loop worker pools) and writes a machine-readable
// BENCH_<name>.json with per-class throughput, service *and*
// intended-start latency percentiles, SLO attainment and outcome
// counts. Identical seed and config produce identical arrival
// schedules.
//
// Usage:
//
//	harvest-loadgen -target http://127.0.0.1:8100 -model ViT_Tiny \
//	    -class realtime:rate=120,items=1 -class offline:workers=2,items=8
//
// harvest-loadgen -h lists every flag with its default.
//
// With no -target, a self-hosted fleet is stood up in process:
//
//	harvest-loadgen -spawn 2 -platform A100 -timescale 0.02 ...
//
// With -fleet-max > 0 (and no -target), the self-hosted tier is
// *managed*: replicas hold leases with an in-process control plane and
// an SLO-driven autoscaler sizes the fleet off the queueing sim,
// optionally with a mid-run replica crash:
//
//	harvest-loadgen -fleet-max 4 -platform Jetson -timescale 1 \
//	    -shape step -step-at 10s -churn-kill-at 20s -timeline ...
//
// With -stream, the harness runs the streaming-camera scenario
// instead: N long-lived camera sessions at -fps against a streaming
// ingest endpoint (or, with no -target, a self-hosted Jetson edge
// offloading to an A100 cloud router), reporting per-camera drop rate,
// dedup hit rate, offload fraction and intended-start latency:
//
//	harvest-loadgen -stream -cameras 6 -fps 60 -stream-frames 180 \
//	    -static-cameras 2 -stream-budget 100ms -offload-queue-threshold 2
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"harvest/internal/core"
	"harvest/internal/fleet"
	"harvest/internal/hw"
	"harvest/internal/loadgen"
	"harvest/internal/serve"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("harvest-loadgen: ")
	var (
		run loadgen.Config
		// replica is the one shape every self-host mode hands its
		// replicas: -spawn, -fleet-max and (as the edge) -stream.
		replica = core.DeploymentConfig{
			Platform: hw.KeyA100, TimeScale: 0.02,
			Stream: &core.StreamConfig{OffloadQueueThreshold: 2},
		}
		managed fleet.ControlPlaneConfig
		cams    loadgen.StreamConfig
	)
	flag.StringVar(&run.Target, "target", "", "base URL of the system under test (empty = self-host a fleet, see -spawn)")
	flag.StringVar(&run.Model, "model", "ViT_Tiny", "model to drive")
	flag.StringVar(&run.Name, "name", "run", "run label; default artifact is BENCH_<name>.json")
	out := flag.String("out", "", "artifact path (default BENCH_<name>.json; \"-\" for stdout only)")
	flag.Uint64Var(&run.Seed, "seed", 1, "schedule seed; same seed + config = same arrival schedule")
	flag.DurationVar(&run.Duration, "duration", 10*time.Second, "run length")
	flag.DurationVar(&run.Warmup, "warmup", 2*time.Second, "leading slice excluded from the measurement window")
	flag.StringVar((*string)(&run.Shape), "shape", "constant", "open-loop rate shape: constant, diurnal, burst or ramp")
	flag.Float64Var(&run.PeakMult, "peak-mult", 4, "shape peak as a multiple of each class's base rate")
	flag.DurationVar(&run.Period, "period", 0, "diurnal/burst cycle length (default duration/5)")
	flag.DurationVar(&run.BurstDur, "burst-dur", 0, "in-burst slice of each period (default period/5)")
	flag.IntVar(&run.MaxInflight, "max-inflight", 4096, "per-class cap on concurrent in-flight requests")
	flag.DurationVar(&run.StepAt, "step-at", 0, "step shape: when the rate jumps to peak-mult × base (default duration/3)")
	flag.BoolVar(&run.Timeline, "timeline", false, "add per-second offered/ok/SLO-met buckets to each class report")

	// Self-hosted fleet knobs (used only when -target is empty).
	spawn := flag.Int("spawn", 2, "self-host: replicas behind an in-process router")
	replica.RegisterFlags(flag.CommandLine)

	// Managed (autoscaled) self-hosted fleet: -fleet-max > 0 replaces
	// the fixed -spawn tier with a lease registry + SLO-driven
	// autoscaler over the same in-process replicas.
	ctl := &managed.Controller
	flag.IntVar(&ctl.Min, "fleet-min", 1, "managed fleet: size floor")
	flag.IntVar(&ctl.Max, "fleet-max", 0, "managed fleet: size ceiling; > 0 enables the autoscaled tier")
	flag.DurationVar(&ctl.Interval, "fleet-interval", 2*time.Second, "managed fleet: autoscaler tick")
	flag.DurationVar(&ctl.SLO, "fleet-slo", 100*time.Millisecond, "managed fleet: queue-wait SLO the controller sizes for")
	flag.DurationVar(&managed.LeaseTTL, "fleet-lease-ttl", 0, "managed fleet: replica lease TTL (0 = registry default)")
	churnKillAt := flag.Duration("churn-kill-at", 0, "managed fleet: kill one replica (crash, no deregistration) this long into the run; 0 disables")

	// Streaming-camera scenario (-stream replaces the request classes).
	streamMode := flag.Bool("stream", false, "run the streaming-camera scenario instead of request classes")
	flag.IntVar(&cams.Cameras, "cameras", 4, "stream: concurrent camera sessions")
	flag.IntVar(&cams.StaticCameras, "static-cameras", 1, "stream: cameras watching a near-static scene (the dedup target)")
	flag.Float64Var(&cams.FPS, "fps", 60, "stream: per-camera frame rate")
	flag.IntVar(&cams.FramesPerCamera, "stream-frames", 120, "stream: frames per camera")
	flag.IntVar(&cams.FrameSize, "frame-size", 96, "stream: square frame edge in pixels (PPM-encoded)")
	flag.DurationVar(&cams.Budget, "stream-budget", 100*time.Millisecond, "stream: per-frame latency budget (0 = server default)")
	flag.Func("class",
		"traffic class spec, repeatable: class[:rate=R|workers=N][,items=I][,deadline=D][,slo=D][,image=PX][,tenant=ID]",
		func(spec string) error {
			cc, err := loadgen.ParseClassSpec(spec)
			if err != nil {
				return err
			}
			run.Classes = append(run.Classes, cc)
			return nil
		})
	flag.Parse()

	if len(run.Classes) == 0 {
		// A representative default mix: paper §2.2's online scenario
		// open-loop, plus a light offline batch background.
		run.Classes = []loadgen.ClassConfig{
			{Class: "online", Rate: 50, Items: 1},
			{Class: "offline", Workers: 1, Items: 8},
		}
	}
	replica.Models = []string{run.Model}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	if *streamMode {
		cams.Name, cams.Model, cams.Seed, cams.URL = run.Name, run.Model, run.Seed, run.Target
		replica.Stream.Budget = cams.Budget
		runStreamScenario(ctx, cams, replica, *out)
		return
	}
	replica.Stream = nil

	var cp *fleet.ControlPlane
	switch {
	case run.Target == "" && ctl.Max > 0:
		log.Printf("self-hosting a managed fleet: %s replicas in [%d..%d], tick %s, SLO %s (timescale %g)",
			replica.Platform, ctl.Min, ctl.Max, ctl.Interval, ctl.SLO, replica.TimeScale)
		ctl.Model = run.Model
		ctl.Logf = log.Printf
		managed.Replica, managed.Local = replica, true
		// Probe often, so a -churn-kill-at crash leaves the rotation fast.
		managed.Router.Pool.ProbeInterval = 20 * time.Millisecond
		cp = fleet.NewControlPlane(managed)
		ep, err := serve.ListenLoopback(cp.Handler())
		if err != nil {
			log.Fatal(err)
		}
		// The control plane closes first: its replicas deregister over HTTP.
		defer ep.Shutdown()
		defer cp.Close()
		if err := cp.Start(ctx, ep.URL); err != nil {
			log.Fatal(err)
		}
		run.Target = ep.URL
		log.Printf("managed fleet ready at %s", run.Target)
		if *churnKillAt > 0 {
			at := *churnKillAt
			time.AfterFunc(at, func() {
				name, err := cp.Provisioner.Kill()
				if err != nil {
					log.Printf("churn: kill at %s: %v", at, err)
					return
				}
				log.Printf("churn: killed replica %s at %s (lease left to expire)", name, at)
			})
		}
	case run.Target == "":
		log.Printf("self-hosting %d %s replica(s) behind an in-process router (timescale %g)",
			*spawn, replica.Platform, replica.TimeScale)
		tier, err := core.StartTier(replica, *spawn)
		if err != nil {
			log.Fatal(err)
		}
		defer tier.Close()
		run.Target = tier.URL
		log.Printf("fleet ready at %s (replicas: %s)", run.Target, strings.Join(tier.ReplicaURLs, ", "))
	}

	log.Printf("driving %s model %s for %s (warmup %s, shape %s, seed %d)",
		run.Target, run.Model, run.Duration, run.Warmup, run.Shape, run.Seed)
	report, err := loadgen.Run(ctx, run)
	if err != nil {
		log.Fatal(err)
	}
	if cp != nil {
		report.Fleet = &loadgen.FleetReport{Decisions: cp.Controller.Decisions(), Events: cp.Registry.Events()}
		for _, d := range report.Fleet.Decisions {
			if d.To != d.From {
				log.Printf("autoscaler: %s (%d→%d, %.1f rps observed, predicted %.1f img/s at p99 %.0f ms)",
					d.Reason, d.From, d.To, d.ArrivalRPS, d.PredictedImgPerSec, d.PredictedP99Ms)
			}
		}
	}
	fmt.Print(report.Summary())
	writeArtifact(report, *out, report.DefaultPath())
}

// writeArtifact writes the report to path ("" = def, "-" = stdout only).
func writeArtifact(report interface {
	WriteFile(string) error
	Write(io.Writer) error
}, path, def string) {
	if path == "" {
		path = def
	}
	if path != "-" {
		if err := report.WriteFile(path); err != nil {
			log.Fatal(err)
		}
		log.Printf("wrote %s", path)
	} else if err := report.Write(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// runStreamScenario drives the streaming-camera workload: against
// cams.URL if given, else against a self-hosted edge→cloud continuum
// whose edge is the replica shape. -platform and -timescale default to
// a -spawn replica (A100, 0.02), which is not an edge: unless given,
// they are left to StartEdgeCloud's scenario defaults (a Jetson at
// full-fidelity sleeps).
func runStreamScenario(ctx context.Context, cams loadgen.StreamConfig, edge core.DeploymentConfig, out string) {
	if cams.URL == "" {
		given := map[string]bool{}
		flag.Visit(func(f *flag.Flag) { given[f.Name] = true })
		if !given["platform"] {
			edge.Platform = ""
		}
		if !given["timescale"] {
			edge.TimeScale = 0
		}
		log.Printf("self-hosting an edge→cloud continuum: edge (+streaming ingest) offloading to an A100 router over %s (queue threshold %d)",
			edge.Stream.OffloadLink, edge.Stream.OffloadQueueThreshold)
		ec, err := loadgen.StartEdgeCloud(loadgen.EdgeCloudConfig{Edge: edge})
		if err != nil {
			log.Fatal(err)
		}
		defer ec.Close()
		cams.URL = ec.URL
		log.Printf("edge ready at %s (cloud router at %s)", ec.URL, ec.Cloud.URL)
	}
	log.Printf("streaming %d camera(s) at %g FPS, %d frames each (budget %s, seed %d)",
		cams.Cameras, cams.FPS, cams.FramesPerCamera, cams.Budget, cams.Seed)
	report, err := loadgen.RunStream(ctx, cams)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(report.Summary())
	writeArtifact(report, out, fmt.Sprintf("BENCH_%s.json", cams.Name))
}
