// Package engine implements the model inference engine of the HARVEST
// backend: the component that executes one model on one platform at a
// chosen batch size (the TensorRT engine analogue). Performance comes
// from the calibrated internal/hw models; functional execution can be
// delegated to a real compute backend over internal/tensor.
package engine

import (
	"errors"
	"fmt"
	"runtime"

	"harvest/internal/hw"
	"harvest/internal/models"
	"harvest/internal/quant"
	"harvest/internal/stats"
	"harvest/internal/tensor"
)

// ErrOOM is returned when a batch does not fit in device memory,
// mirroring the out-of-memory boundaries of the paper's Fig. 5/6/8.
var ErrOOM = errors.New("engine: out of device memory")

// ErrBackend wraps failures (including recovered panics) from the real
// compute backend, so a malformed model or tensor cannot crash a
// serving replica and callers can classify the failure.
var ErrBackend = errors.New("engine: real backend failure")

// InferStats describes one executed batch.
type InferStats struct {
	Batch     int
	Seconds   float64
	ImgPerSec float64
	MFU       float64
	TFLOPS    float64
}

// Forwarder executes a real forward pass; *models.ViTModel and
// *models.ResNetModel both satisfy it.
type Forwarder interface {
	Forward(x *tensor.Tensor) (*tensor.Tensor, error)
}

// Engine hosts one model instance on one platform.
type Engine struct {
	Entry    models.Entry
	Platform *hw.Platform
	Perf     *hw.PerfModel
	// Pipeline marks the engine as co-located with GPU preprocessing
	// (the Fig. 8 end-to-end memory configuration).
	Pipeline bool
	// Real, when set, is invoked by InferTensors for actual compute.
	Real Forwarder
}

// New creates an engine for the named Table 3 model on the platform,
// with weights held at the platform's inference precision.
func New(p *hw.Platform, modelName string) (*Engine, error) {
	entry, err := models.ByName(modelName)
	if err != nil {
		return nil, err
	}
	bytesPer, err := quant.BytesPerValue(string(p.Precision))
	if err != nil {
		return nil, err
	}
	perf, err := hw.NewPerfModel(p, modelName,
		float64(entry.Spec.ParamMACs()), entry.Spec.WeightBytes(bytesPer))
	if err != nil {
		return nil, err
	}
	return &Engine{Entry: entry, Platform: p, Perf: perf}, nil
}

// Infer models execution of one batch, returning its latency and
// utilization, or ErrOOM if the batch does not fit.
func (e *Engine) Infer(batch int) (InferStats, error) {
	if batch <= 0 {
		return InferStats{}, fmt.Errorf("engine: non-positive batch %d", batch)
	}
	if !e.Perf.FitsMemory(batch, e.Pipeline) {
		return InferStats{}, fmt.Errorf("%w: %s batch %d needs %d MiB, %d MiB available",
			ErrOOM, e.Entry.Spec.Name, batch,
			e.Perf.MemoryBytes(batch, e.Pipeline)>>20, e.availBytes()>>20)
	}
	sec := e.Perf.LatencySeconds(batch)
	return InferStats{
		Batch:     batch,
		Seconds:   sec,
		ImgPerSec: float64(batch) / sec,
		MFU:       e.Perf.MFU(batch),
		TFLOPS:    e.Perf.AchievedTFLOPS(batch),
	}, nil
}

func (e *Engine) availBytes() int64 {
	if e.Pipeline {
		return e.Platform.PipelineMemBytes()
	}
	return e.Platform.EngineMemBytes()
}

// MaxBatch returns the largest batch of the platform's figure sweep
// that fits, optionally capped (the Fig. 8 harness caps at 64).
func (e *Engine) MaxBatch(cap int) int {
	return e.Perf.MaxBatch(hw.BatchSweep(e.Platform.Name), e.Pipeline, cap)
}

// AttachReal builds and attaches an executable compute backend for the
// engine's model at the given precision ("fp32", "fp16", "bf16",
// "int8"; empty means fp32), with weights initialized from seed. After
// this, InferTensors runs real forward passes through the packed
// (quantized, for int8/f16) GEMM kernels.
func (e *Engine) AttachReal(precision string, seed uint64) error {
	f, err := models.NewExecutable(e.Entry.Spec.Name, e.Entry.Spec.NumClasses, precision, stats.NewRNG(seed))
	if err != nil {
		return err
	}
	e.Real = f
	return nil
}

// InferTensors runs a real forward pass through the attached Real
// backend over a batch of flattened CHW inputs, returning per-image
// logits. The modeled InferStats for the same batch size accompany the
// outputs so callers get both function and (modeled) performance.
// Panics escaping the backend (shape mismatches deep inside a malformed
// model) are recovered into ErrBackend-wrapped errors: a bad model must
// fail the request, never the replica.
func (e *Engine) InferTensors(inputs [][]float32, inputSize int) (out [][]float32, stats InferStats, err error) {
	if e.Real == nil {
		return nil, InferStats{}, fmt.Errorf("engine: no real backend attached to %s", e.Entry.Spec.Name)
	}
	if len(inputs) == 0 {
		return nil, InferStats{}, fmt.Errorf("engine: empty input batch")
	}
	stats, err = e.Infer(len(inputs))
	if err != nil {
		return nil, InferStats{}, err
	}
	want := 3 * inputSize * inputSize
	buf, ok := batches.Get()
	if !ok {
		buf = new([]float32)
	}
	defer batches.Put(buf)
	x := tensor.FromSlice(tensor.Grow(buf, len(inputs)*want), len(inputs), 3, inputSize, inputSize)
	for i, in := range inputs {
		if len(in) != want {
			return nil, InferStats{}, fmt.Errorf("engine: input %d has %d values, want %d", i, len(in), want)
		}
		copy(x.Data[i*want:(i+1)*want], in)
	}
	defer func() {
		if r := recover(); r != nil {
			out, stats = nil, InferStats{}
			err = fmt.Errorf("%w: %s: %v", ErrBackend, e.Entry.Spec.Name, r)
		}
	}()
	logits, err := e.Real.Forward(x)
	if err != nil {
		return nil, InferStats{}, fmt.Errorf("%w: %s: %v", ErrBackend, e.Entry.Spec.Name, err)
	}
	n := logits.Shape[1]
	out = make([][]float32, len(inputs))
	for i := range out {
		out[i] = append([]float32(nil), logits.Data[i*n:(i+1)*n]...)
	}
	return out, stats, nil
}

// batches recycles InferTensors' input batches. A forward reads its
// input only while it runs, so each buffer serves one call at a time.
var batches = tensor.FreeList[*[]float32]{Max: 2 * runtime.GOMAXPROCS(0)}

// SweepResult is one point of a batch-size sweep.
type SweepResult struct {
	Batch int
	InferStats
	OOM bool
	// Err records why the point has no stats: the OOM error for OOM
	// points, or any other engine failure. A sweep point never vanishes
	// without trace.
	Err error
}

// Sweep evaluates the engine across the platform's figure batch axis,
// marking out-of-memory points, producing the data behind Fig. 5/6.
func (e *Engine) Sweep() []SweepResult {
	var out []SweepResult
	for _, b := range hw.BatchSweep(e.Platform.Name) {
		st, err := e.Infer(b)
		if err != nil {
			out = append(out, SweepResult{Batch: b, OOM: errors.Is(err, ErrOOM), Err: err})
			continue
		}
		out = append(out, SweepResult{Batch: b, InferStats: st})
	}
	return out
}
