// Package core is the top-level HARVEST-Go API for one job, *deploy*:
// it ties the substrates together into an inference server for a
// platform/model set (NewDeployment), a replica with optional camera
// ingest in front of it (NewReplica), or a tier of replicas behind a
// router (StartTier). Regenerating the paper's artifacts is
// harvest-bench's job, over internal/experiments.
package core

import (
	"fmt"
	"time"

	"harvest/internal/engine"
	"harvest/internal/hw"
	"harvest/internal/imaging"
	"harvest/internal/modelio"
	"harvest/internal/models"
	"harvest/internal/preprocess"
	"harvest/internal/serve"
	"harvest/internal/trace"
)

// DeploymentConfig is the one description of a replica: every binary's
// replica-shape flags bind to its fields, and every deployment shape
// (NewReplica, StartTier, fleet.NewControlPlane) is assembled from a
// value of it.
type DeploymentConfig struct {
	// Platform is a hw platform key ("A100", "V100", "Jetson").
	Platform string
	// Models lists Table 3 model names; empty means all four.
	Models []string
	// QueueDelay is the dynamic batching window (default 2ms).
	QueueDelay time.Duration
	// Instances per model (default 1).
	Instances int
	// TimeScale: fraction of modeled latency instances really sleep.
	TimeScale float64
	// DrainTimeout bounds Close's graceful drain per model
	// (default serve.DefaultDrainTimeout).
	DrainTimeout time.Duration
	// MaxQueueDepth bounds each model's admission queue; a full queue
	// sheds new requests with serve.ErrOverloaded / HTTP 429
	// (default serve.DefaultMaxQueueDepth).
	MaxQueueDepth int
	// RealtimeBudget is the implicit deadline of realtime-class
	// requests (default serve.DefaultRealtimeBudget, the paper's
	// 16.7 ms SLO; negative disables).
	RealtimeBudget time.Duration
	// TraceCapacity bounds the server's trace ring buffer, which feeds
	// GET /v2/trace (default serve.DefaultTraceCapacity; negative
	// disables tracing).
	TraceCapacity int
	// Preproc attaches an encoded-image preprocessor to every model so
	// POST /v2/models/{name}/infer accepts images (binary parts or
	// images_b64) alongside tensors. Choices are Fig. 7's CPU engines:
	// "cpu" (or "pytorch") for the torchvision-style pipeline, "cv2" for
	// the OpenCV-style one. Empty disables the encoded path.
	Preproc string
	// PreprocWorkers sizes the decode/resize worker pool shared by all
	// models (0 = one worker per CPU). The pool's goroutines live for
	// the process lifetime. Only meaningful when Preproc is set.
	PreprocWorkers int
	// RealBackend, when non-empty, attaches an executable compute
	// backend at the named precision ("fp32", "fp16", "bf16", "int8")
	// to every model engine: tensor inputs on the infer endpoint then run
	// real forward passes through the packed/quantized GEMM kernels
	// instead of the simulation-only path. Full-size Table 3 models are
	// compute-heavy on CPU; pair with Models to limit scope.
	RealBackend string
	// RealSeed seeds the real backend's weight initialization
	// (0 means 1, so deployments are reproducible by default).
	RealSeed uint64
	// TenantQuotas maps tenant ids (or "*" for a wildcard applied to any
	// unlisted tenant) to per-tenant admission quotas on every model.
	TenantQuotas map[string]serve.TenantQuota
	// TenantQuantum is the deficit-round-robin quantum in request-items
	// (default serve.DefaultTenantQuantum).
	TenantQuantum int
	// AntiStarveEvery gives lower-priority lanes a guaranteed 1-in-N
	// dispatch under saturating higher-priority load (default
	// serve.DefaultAntiStarveEvery; negative disables).
	AntiStarveEvery int
	// RealCheckpoint, when non-empty, loads the real backend's weights
	// from this .hvt checkpoint instead of random initialization,
	// quantizing them at load into the RealBackend precision (fp32 when
	// RealBackend is empty). The checkpoint must match the single
	// configured model: a kind/name/geometry mismatch is a typed
	// modelio.ErrModelMismatch at startup, never silent random weights.
	RealCheckpoint string
	// Stream, when non-nil, adds streaming camera ingest (and optionally
	// edge→cloud offload) in front of the deployment. NewDeployment
	// ignores it; NewReplica assembles it.
	Stream *StreamConfig
}

// newPreprocessor builds the configured CPU preprocessing engine for
// one model, sized to that model's Table 3 input resolution.
func newPreprocessor(kind string, p *hw.Platform, out int, pool *preprocess.Pool, tensors *imaging.TensorPool) (*preprocess.CPUEngine, error) {
	var e *preprocess.CPUEngine
	switch kind {
	case "cpu", "pytorch":
		e = &preprocess.CPUEngine{Platform: p, Out: out}
	case "cv2":
		e = preprocess.NewCV2Engine(p, out)
	default:
		return nil, fmt.Errorf("core: unknown preprocessor %q (want cpu, pytorch or cv2)", kind)
	}
	// Serving needs the actual tensors, not just the modeled cost.
	e.Materialize = true
	e.Pool = pool
	e.Tensors = tensors // the server hands served tensors back (Recycle)
	return e, nil
}

// NewDeployment builds a running inference server hosting the
// configured models on the platform's calibrated engines. The caller
// owns the returned server and must Close it.
func NewDeployment(cfg DeploymentConfig) (*serve.Server, error) {
	p, err := hw.ByName(cfg.Platform)
	if err != nil {
		return nil, err
	}
	names := cfg.Models
	if len(names) == 0 {
		names = models.Names()
	}
	if cfg.QueueDelay == 0 {
		cfg.QueueDelay = 2 * time.Millisecond
	}
	if cfg.TraceCapacity == 0 {
		cfg.TraceCapacity = serve.DefaultTraceCapacity
	}
	srv := serve.NewServer()
	if cfg.TraceCapacity > 0 {
		// Installed before Register so every model records into it.
		srv.SetTrace(trace.NewRing(cfg.TraceCapacity))
	}
	var checkpoint *modelio.Checkpoint
	if cfg.RealCheckpoint != "" {
		if len(names) != 1 {
			srv.Close()
			return nil, fmt.Errorf("core: RealCheckpoint holds one model's weights; configure exactly one model (got %d)", len(names))
		}
		checkpoint, err = modelio.LoadFile(cfg.RealCheckpoint)
		if err != nil {
			srv.Close()
			return nil, err
		}
	}
	var pool *preprocess.Pool
	tensors := &imaging.TensorPool{} // fills as requests complete
	if cfg.Preproc != "" {
		pool = preprocess.NewPool(cfg.PreprocWorkers)
	}
	for _, name := range names {
		eng, err := engine.New(p, name)
		if err != nil {
			srv.Close()
			return nil, err
		}
		if checkpoint != nil {
			// Trained weights, quantized at load into the serving
			// precision. This replaces the old silent fallback where a
			// reduced-precision -real deployment re-initialized random
			// weights because checkpoint load existed only in fp32.
			f, err := modelio.ExecutableFor(checkpoint, name,
				eng.Entry.Spec.InputSize, eng.Entry.Spec.NumClasses, cfg.RealBackend)
			if err != nil {
				srv.Close()
				return nil, err
			}
			eng.Real = f
		} else if cfg.RealBackend != "" {
			seed := cfg.RealSeed
			if seed == 0 {
				seed = 1
			}
			if err := eng.AttachReal(cfg.RealBackend, seed); err != nil {
				srv.Close()
				return nil, err
			}
		}
		mc := serve.ModelConfig{
			Name:            name,
			Engine:          eng,
			QueueDelay:      cfg.QueueDelay,
			Instances:       cfg.Instances,
			TimeScale:       cfg.TimeScale,
			DrainTimeout:    cfg.DrainTimeout,
			MaxQueueDepth:   cfg.MaxQueueDepth,
			RealtimeBudget:  cfg.RealtimeBudget,
			TenantQuotas:    cfg.TenantQuotas,
			TenantQuantum:   cfg.TenantQuantum,
			AntiStarveEvery: cfg.AntiStarveEvery,
		}
		if cfg.RealBackend != "" || checkpoint != nil {
			mc.InputSize = eng.Entry.Spec.InputSize
		}
		if pool != nil {
			entry, err := models.ByName(name)
			if err != nil {
				srv.Close()
				return nil, err
			}
			pre, err := newPreprocessor(cfg.Preproc, p, entry.Spec.InputSize, pool, tensors)
			if err != nil {
				srv.Close()
				return nil, err
			}
			mc.Preproc = pre
			mc.InputSize = entry.Spec.InputSize
		}
		if err := srv.Register(mc); err != nil {
			srv.Close()
			return nil, err
		}
	}
	return srv, nil
}
