package loadgen

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sync"
	"time"

	"harvest/internal/core"
	"harvest/internal/hw"
	"harvest/internal/imaging"
	"harvest/internal/metrics"
	"harvest/internal/serve"
	"harvest/internal/stats"
	"harvest/internal/stream"
)

// StreamConfig drives the streaming-camera scenario: N cameras, each a
// long-lived ingest session sending frames at a fixed FPS, open-loop
// (a camera does not slow down because the server is behind — exactly
// the coordinated-omission discipline of the request scenarios).
type StreamConfig struct {
	// Name labels the report (default "stream").
	Name string
	// URL is the ingest tier base URL (a harvest-serve with -stream, a
	// harvest-router in front of several, or StartEdgeCloud's edge).
	URL string
	// Cameras is the camera count (default 4).
	Cameras int
	// StaticCameras is how many of the cameras watch a near-static
	// scene (tiny per-frame sensor noise): their frames are
	// perceptually near-identical, the temporal-dedup target. The rest
	// pan: every frame has fresh content (default 1).
	StaticCameras int
	// FPS is the per-camera frame rate (default 60, the paper's
	// ground-camera scenario).
	FPS float64
	// FramesPerCamera is the stream length (default 120).
	FramesPerCamera int
	// Model is the model query parameter ("" = server default).
	Model string
	// Tenant tags every camera session ("" = server default tenant).
	Tenant string
	// Budget is the per-frame latency budget ("" = server default).
	Budget time.Duration
	// FrameSize is the square frame edge in pixels (default 96).
	FrameSize int
	// Seed makes frame content and noise deterministic (default 1).
	Seed uint64
}

func (c StreamConfig) withDefaults() StreamConfig {
	if c.Name == "" {
		c.Name = "stream"
	}
	if c.Cameras <= 0 {
		c.Cameras = 4
	}
	if c.StaticCameras < 0 {
		c.StaticCameras = 0
	}
	if c.StaticCameras > c.Cameras {
		c.StaticCameras = c.Cameras
	}
	if c.FPS <= 0 {
		c.FPS = 60
	}
	if c.FramesPerCamera <= 0 {
		c.FramesPerCamera = 120
	}
	if c.FrameSize <= 0 {
		c.FrameSize = 96
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// CameraReport is one camera's (or the whole run's) streaming results.
// Counts come from the server's authoritative session summary;
// latencies from the client's own clock against the intended frame
// schedule.
type CameraReport struct {
	Camera        string `json:"camera"`
	Frames        int64  `json:"frames"`
	ServedEdge    int64  `json:"served_edge"`
	ServedCloud   int64  `json:"served_cloud"`
	DedupHits     int64  `json:"dedup_hits"`
	Dropped       int64  `json:"dropped"`
	RejectedOrder int64  `json:"rejected_order"`
	Failed        int64  `json:"failed"`
	// DropRate is dropped frames over all frames; the admission
	// drop-stale gate's shed fraction.
	DropRate float64 `json:"drop_rate"`
	// DedupHitRate is cache-answered frames over all frames.
	DedupHitRate float64 `json:"dedup_hit_rate"`
	// OffloadFraction is cloud-served over all served (edge + cloud).
	OffloadFraction float64 `json:"offload_fraction"`
	// IntendedStartMs measures intended-frame-time→outcome for served
	// and cached frames: the coordinated-omission-safe per-frame
	// latency, charged from when the camera *meant* to send the frame.
	IntendedStartMs serve.LatencySummaryJSON `json:"intended_start_ms"`
	// UploadMs summarizes the server-reported modeled upload cost of
	// this camera's cloud-served frames.
	UploadMs serve.LatencySummaryJSON `json:"upload_ms"`
}

// StreamReport is the streaming scenario's artifact (BENCH_PR9.json).
type StreamReport struct {
	Name            string         `json:"name"`
	GeneratedAt     time.Time      `json:"generated_at"`
	Cameras         int            `json:"cameras"`
	StaticCameras   int            `json:"static_cameras"`
	FPS             float64        `json:"fps"`
	FramesPerCamera int            `json:"frames_per_camera"`
	FrameBytes      int            `json:"frame_bytes"`
	BudgetMs        float64        `json:"budget_ms,omitempty"`
	Total           CameraReport   `json:"total"`
	PerCamera       []CameraReport `json:"per_camera"`
}

// Write serializes the report as indented JSON.
func (r *StreamReport) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteFile writes the report to path (conventionally
// BENCH_<name>.json).
func (r *StreamReport) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.Write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Summary is a one-line human synopsis.
func (r *StreamReport) Summary() string {
	t := r.Total
	return fmt.Sprintf("%d cams @ %g FPS: %d frames, drop %.1f%%, dedup %.1f%%, offload %.1f%%, intended-start p99 %.1f ms",
		r.Cameras, r.FPS, t.Frames, t.DropRate*100, t.DedupHitRate*100, t.OffloadFraction*100,
		t.IntendedStartMs.P99Ms)
}

// camResult is one camera's in-flight accounting.
type camResult struct {
	camera   string
	summary  stream.Summary
	intended metrics.LatencyRecorder
	upload   metrics.LatencyRecorder
	err      error
}

// RunStream runs the streaming-camera scenario and reports per-camera
// and aggregate drop, dedup, offload and intended-start numbers.
func RunStream(ctx context.Context, cfg StreamConfig) (*StreamReport, error) {
	cfg = cfg.withDefaults()
	period := time.Duration(float64(time.Second) / cfg.FPS)
	client := &http.Client{Transport: serve.NewTransport()}

	results := make([]*camResult, cfg.Cameras)
	var wg sync.WaitGroup
	var frameBytes int
	for i := 0; i < cfg.Cameras; i++ {
		res := &camResult{camera: fmt.Sprintf("cam-%02d", i)}
		results[i] = res
		static := i < cfg.StaticCameras
		frames, err := synthFrames(cfg, uint64(i), static)
		if err != nil {
			return nil, err
		}
		if frameBytes == 0 && len(frames) > 0 {
			frameBytes = len(frames[0])
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			res.err = runCamera(ctx, client, cfg, res, frames, period)
		}()
	}
	wg.Wait()

	rep := &StreamReport{
		Name:            cfg.Name,
		GeneratedAt:     time.Now().UTC(),
		Cameras:         cfg.Cameras,
		StaticCameras:   cfg.StaticCameras,
		FPS:             cfg.FPS,
		FramesPerCamera: cfg.FramesPerCamera,
		FrameBytes:      frameBytes,
		BudgetMs:        float64(cfg.Budget) / float64(time.Millisecond),
	}
	totalIntended := metrics.HistogramSnapshot{}
	totalUpload := metrics.HistogramSnapshot{}
	for _, res := range results {
		if res.err != nil {
			return nil, fmt.Errorf("loadgen: %s: %w", res.camera, res.err)
		}
		cr := cameraReport(res)
		rep.PerCamera = append(rep.PerCamera, cr)
		rep.Total.Frames += cr.Frames
		rep.Total.ServedEdge += cr.ServedEdge
		rep.Total.ServedCloud += cr.ServedCloud
		rep.Total.DedupHits += cr.DedupHits
		rep.Total.Dropped += cr.Dropped
		rep.Total.RejectedOrder += cr.RejectedOrder
		rep.Total.Failed += cr.Failed
		totalIntended = totalIntended.Merge(res.intended.Snapshot())
		totalUpload = totalUpload.Merge(res.upload.Snapshot())
	}
	rep.Total.Camera = "all"
	fillRates(&rep.Total)
	rep.Total.IntendedStartMs = latencyMs(totalIntended)
	rep.Total.UploadMs = latencyMs(totalUpload)
	return rep, nil
}

func cameraReport(res *camResult) CameraReport {
	s := res.summary
	cr := CameraReport{
		Camera:          res.camera,
		Frames:          s.Frames,
		ServedEdge:      s.ServedEdge,
		ServedCloud:     s.ServedCloud,
		DedupHits:       s.DedupHits,
		Dropped:         s.Dropped,
		RejectedOrder:   s.RejectedOrder,
		Failed:          s.Failed,
		IntendedStartMs: latencyMs(res.intended.Snapshot()),
		UploadMs:        latencyMs(res.upload.Snapshot()),
	}
	fillRates(&cr)
	return cr
}

func fillRates(cr *CameraReport) {
	if cr.Frames > 0 {
		cr.DropRate = float64(cr.Dropped) / float64(cr.Frames)
		cr.DedupHitRate = float64(cr.DedupHits) / float64(cr.Frames)
	}
	if served := cr.ServedEdge + cr.ServedCloud; served > 0 {
		cr.OffloadFraction = float64(cr.ServedCloud) / float64(served)
	}
}

// runCamera drives one camera: open the session, pace frames at FPS
// against the intended schedule (never against server progress), and
// charge each outcome's latency from the frame's *intended* send time.
func runCamera(ctx context.Context, client *http.Client, cfg StreamConfig, res *camResult, frames [][]byte, period time.Duration) error {
	sess, err := stream.DialSession(ctx, client, cfg.URL, res.camera, cfg.Model, cfg.Tenant, cfg.Budget)
	if err != nil {
		return err
	}
	start := time.Now()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for o := range sess.Outcomes() {
			switch o.Outcome {
			case stream.OutcomeServed, stream.OutcomeCached:
				intended := start.Add(time.Duration(o.Seq-1) * period)
				res.intended.Observe(time.Since(intended).Seconds())
			}
			if o.UploadMs > 0 {
				res.upload.Observe(o.UploadMs / 1000)
			}
		}
	}()
	for i, payload := range frames {
		intended := start.Add(time.Duration(i) * period)
		if d := time.Until(intended); d > 0 {
			select {
			case <-time.After(d):
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		if err := sess.Send(stream.Frame{Seq: int64(i + 1), Image: payload, Format: "ppm"}); err != nil {
			return fmt.Errorf("send frame %d: %w", i+1, err)
		}
	}
	if err := sess.CloseSend(); err != nil {
		return err
	}
	summary, err := sess.Wait()
	<-done
	if err != nil {
		return err
	}
	res.summary = summary
	return nil
}

// synthFrames renders one camera's frames. A static camera re-observes
// one scene with per-frame sensor noise (dHash-stable, the dedup
// cache's target); a panning camera gets fresh content every frame.
func synthFrames(cfg StreamConfig, cam uint64, static bool) ([][]byte, error) {
	kinds := []imaging.SyntheticKind{imaging.KindLeaf, imaging.KindRows, imaging.KindSoil, imaging.KindFruit}
	kind := kinds[int(cam)%len(kinds)]
	rng := stats.NewRNG(cfg.Seed + 7919*cam)
	frames := make([][]byte, cfg.FramesPerCamera)
	base := imaging.Synthesize(cfg.FrameSize, cfg.FrameSize, kind, rng)
	for i := range frames {
		var im *imaging.Image
		if static || i == 0 {
			im = noisyCopy(base, rng)
		} else {
			im = imaging.Synthesize(cfg.FrameSize, cfg.FrameSize, kinds[(int(cam)+i)%len(kinds)], rng)
		}
		data, err := imaging.EncodeBytes(im, imaging.FormatPPM)
		if err != nil {
			return nil, err
		}
		frames[i] = data
	}
	return frames, nil
}

// noisyCopy perturbs ~10% of pixels by ±2: visually the same scene,
// within the dedup cache's Hamming threshold.
func noisyCopy(base *imaging.Image, rng *stats.RNG) *imaging.Image {
	im := &imaging.Image{W: base.W, H: base.H, Pix: append([]uint8(nil), base.Pix...)}
	for i := range im.Pix {
		if rng.Intn(10) == 0 {
			im.Pix[i] = clampU8(int(im.Pix[i]) + rng.Intn(5) - 2)
		}
	}
	return im
}

func clampU8(v int) uint8 {
	if v < 0 {
		return 0
	}
	if v > 255 {
		return 255
	}
	return uint8(v)
}

// EdgeCloudConfig describes a self-hosted edge→cloud continuum for the
// streaming scenario: one streaming-ingest edge replica offloading to
// a router over datacenter replicas, all in-process over loopback.
// Zero fields take the scenario's defaults: a Jetson edge serving
// ViT_Tiny at full-fidelity sleeps (so queueing pressure is real)
// through the cpu preprocessor, offloading at queue depth 2 to two
// A100 replicas of the same model at TimeScale 0.05 — fast, but
// nonzero so queueing exists.
type EdgeCloudConfig struct {
	// Edge is the ingest replica; its Stream.OffloadTo is pointed at
	// the cloud router.
	Edge core.DeploymentConfig
	// Cloud is the shape of each datacenter replica (Models and Preproc
	// default to the edge's).
	Cloud core.DeploymentConfig
}

// cloudReplicas is the datacenter tier's replica count.
const cloudReplicas = 2

// EdgeCloud is a running self-hosted continuum.
type EdgeCloud struct {
	// URL is the edge's base URL — cameras stream here.
	URL string
	// Edge is the ingest replica and Cloud the tier it offloads to, for
	// metrics inspection.
	Edge  *core.Replica
	Cloud *core.Tier
}

// Close tears the continuum down, edge first.
func (ec *EdgeCloud) Close() {
	if ec.Edge != nil {
		ec.Edge.Close()
	}
	ec.Cloud.Close()
}

// StartEdgeCloud stands the continuum up; callers must Close it.
func StartEdgeCloud(cfg EdgeCloudConfig) (*EdgeCloud, error) {
	edge, cloud := cfg.Edge, cfg.Cloud
	if edge.Platform == "" {
		edge.Platform = hw.KeyJetson
	}
	if len(edge.Models) == 0 {
		edge.Models = []string{"ViT_Tiny"}
	}
	if edge.TimeScale == 0 {
		edge.TimeScale = 1
	}
	if edge.Preproc == "" {
		edge.Preproc = "cpu"
	}
	var sc core.StreamConfig
	if edge.Stream != nil {
		sc = *edge.Stream
	}
	if sc.OffloadQueueThreshold <= 0 {
		sc.OffloadQueueThreshold = 2
	}
	if cloud.Platform == "" {
		cloud.Platform = hw.KeyA100
	}
	if len(cloud.Models) == 0 {
		cloud.Models = edge.Models
	}
	if cloud.TimeScale == 0 {
		cloud.TimeScale = 0.05
	}
	if cloud.Preproc == "" {
		cloud.Preproc = edge.Preproc
	}

	tier, err := core.StartTier(cloud, cloudReplicas)
	if err != nil {
		return nil, fmt.Errorf("loadgen: cloud tier: %w", err)
	}
	ec := &EdgeCloud{Cloud: tier}
	sc.OffloadTo = tier.URL
	edge.Stream = &sc
	if ec.Edge, err = core.StartReplica(edge); err != nil {
		ec.Close()
		return nil, fmt.Errorf("loadgen: edge replica: %w", err)
	}
	ec.URL = ec.Edge.URL
	return ec, nil
}
