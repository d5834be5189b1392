// Package preprocess implements the HARVEST CPU preprocessing engines
// (paper §3.2, §4.2): the Torchvision/PyTorch baseline and a CV2-style
// engine doing full-resolution perspective rectification for the CRSA
// camera feed. DALI (GPU) preprocessing is priced by
// hw.GPUPreprocBatchSeconds, not by an engine here.
//
// The engines really decode, warp, resize and normalize pixels, through
// the fused single-pass kernel in internal/imaging, one item after
// another on the caller's goroutine — the paper's serial Fig. 7
// baseline — and report the measured work scaled to the target
// platform's CPU. They can materialize the normalized CHW tensors the
// model engines consume.
package preprocess

import (
	"fmt"
	"sync"
	"time"

	"harvest/internal/datasets"
	"harvest/internal/hw"
	"harvest/internal/imaging"
)

// Item is one image entering a preprocessing engine. Either Encoded or
// Decoded must be set; W/H always describe the source size.
type Item struct {
	Encoded []byte
	Format  imaging.Format
	Decoded *imaging.Image
	W, H    int
	Task    datasets.TaskPreproc
}

// ItemFromDataset loads sample i of ds as an encoded Item.
func ItemFromDataset(ds *datasets.Dataset, i int) (Item, error) {
	data, rec, err := ds.Encoded(i)
	if err != nil {
		return Item{}, err
	}
	return Item{Encoded: data, Format: ds.Spec().Format,
		W: rec.W, H: rec.H, Task: ds.Spec().Task}, nil
}

// Result is the outcome of preprocessing one batch.
type Result struct {
	// Tensors holds the normalized CHW float32 tensors (3*out*out per
	// image) when the engine materializes outputs; nil otherwise.
	Tensors [][]float32
	// Seconds is the batch's duration on the target platform: the host
	// time the batch took on the caller's goroutine, scaled by the
	// platform's single-thread core speed (hw.ScaleCPUSeconds). On an
	// oversubscribed host it includes scheduler interleaving and
	// overestimates.
	Seconds float64
}

// Engine transforms batches of raw images into model-ready tensors.
type Engine interface {
	// Name identifies the engine as Fig. 7 labels it ("PyTorch",
	// "CV2").
	Name() string
	// OutRes is the square output resolution.
	OutRes() int
	// ProcessBatch preprocesses the items.
	ProcessBatch(items []Item) (Result, error)
}

// CPUEngine is the Torchvision-style CPU baseline: decode, optional
// task-specific transform, then the fused resize+crop+normalize kernel
// writing straight into the output tensor. All pixel work is real; see
// Result.Seconds for the platform-time semantics. Safe for concurrent
// ProcessBatch calls, each of which runs on its caller's goroutine.
type CPUEngine struct {
	Platform *hw.Platform
	Out      int
	// Label overrides the reported name (default "PyTorch").
	Label string
	// FullResWarp makes the perspective rectification run at full
	// source resolution before resizing (the OpenCV CRSA pipeline);
	// otherwise perspective items are warped directly to a working
	// resolution. Full-resolution warping on 4K frames is what makes
	// the paper's CV2 bars so tall.
	FullResWarp bool
	// Materialize controls whether normalized tensors are returned.
	Materialize bool
	// Deprecated: ignored; see Pool.
	Pool *Pool
	// Tensors, when set, supplies output tensor buffers: callers that
	// are done with a materialized tensor hand it back via Recycle and
	// the next batch reuses the memory instead of allocating.
	Tensors *imaging.TensorPool

	// discard recycles output buffers internally when Materialize is
	// off (the tensor is produced, measured, and dropped).
	discard imaging.TensorPool
	// scratches recycles scratch sets across concurrent ProcessBatch
	// callers.
	scratches sync.Pool
}

// Name returns the Fig. 7 label.
func (e *CPUEngine) Name() string {
	if e.Label != "" {
		return e.Label
	}
	return "PyTorch"
}

// OutRes returns the output resolution.
func (e *CPUEngine) OutRes() int { return e.Out }

// Deprecated: Pool, NewPool, Pool.Close and CPUEngine.Pool are inert
// (every batch runs on its caller's goroutine); they stay only while
// the benchmark harness names them.
type Pool struct{}

// Deprecated: NewPool starts nothing; see Pool.
func NewPool(int) *Pool { return &Pool{} }

// Deprecated: Close does nothing; see Pool.
func (*Pool) Close() {}

// scratch is one ProcessBatch call's buffer set, reused across calls
// through CPUEngine.scratches.
type scratch struct {
	kernel imaging.FusedKernel
	decode *imaging.Image
	warp   *imaging.Image
	// ppm is the reused header for zero-copy raw-frame decodes; its
	// Pix aliases the item's encoded bytes, never an owned buffer.
	ppm imaging.Image
}

// Recycle returns materialized tensors to the engine's tensor pool so
// subsequent batches reuse their memory. Safe to call with tensors
// from any source; a no-op when the engine has no Tensors pool.
func (e *CPUEngine) Recycle(tensors [][]float32) {
	if e.Tensors == nil {
		return
	}
	for _, t := range tensors {
		e.Tensors.Put(t)
	}
}

// getTensor obtains an output buffer for one item.
func (e *CPUEngine) getTensor(n int) []float32 {
	if e.Tensors != nil {
		return e.Tensors.Get(n)
	}
	if !e.Materialize {
		return e.discard.Get(n)
	}
	return make([]float32, n)
}

func (e *CPUEngine) getScratch() *scratch {
	if s, _ := e.scratches.Get().(*scratch); s != nil {
		return s
	}
	return &scratch{}
}

// decodeInto resolves an item's pixels. Raw (PPM) frames are decoded
// zero-copy — the pipeline only reads the source raster, so it can
// alias the encoded payload directly. Compressed formats decode into
// the reused scratch buffer.
func decodeInto(it Item, s *scratch) (*imaging.Image, error) {
	if it.Decoded != nil {
		return it.Decoded, nil
	}
	if it.Encoded == nil {
		return nil, fmt.Errorf("preprocess: item has neither decoded nor encoded pixels")
	}
	if it.Format == imaging.FormatPPM {
		return imaging.DecodePPMZeroCopy(it.Encoded, &s.ppm)
	}
	im, err := imaging.DecodeBytesInto(it.Encoded, it.Format, s.decode)
	if err != nil {
		return nil, err
	}
	s.decode = im
	return im, nil
}

// processItem runs the full CPU pipeline for one item into a tensor
// from getTensor: decode (reusing s.decode), optional perspective warp
// (reusing s.warp), then the fused resize+crop+normalize kernel. The
// pixel arithmetic is identical to the historical
// decode→warp→ResizeShortSide→CenterCrop→Normalize composition.
func (e *CPUEngine) processItem(it Item, s *scratch) ([]float32, error) {
	im, err := decodeInto(it, s)
	if err != nil {
		return nil, err
	}
	if it.Task == datasets.TaskPerspective {
		var ww, wh int
		if e.FullResWarp {
			ww, wh = im.W, im.H
		} else {
			work := 4 * e.Out
			if work > im.W {
				work = im.W
			}
			ww, wh = work, work
		}
		hom, err := imaging.GroundCameraHomography(im.W, im.H, ww, wh)
		if err != nil {
			return nil, err
		}
		s.warp = imaging.ReuseImage(s.warp, ww, wh)
		imaging.WarpPerspectiveInto(s.warp, im, hom)
		im = s.warp
	}
	dst := e.getTensor(imaging.FusedLen(im.W, im.H, e.Out))
	if _, _, err := s.kernel.ResizeCropNormalizeInto(dst, im, e.Out, imaging.ImageNetMean, imaging.ImageNetStd); err != nil {
		return nil, err
	}
	return dst, nil
}

// ProcessBatch really preprocesses every item on the CPU, in batch
// order on the caller's goroutine. The first item that fails stops the
// batch; the error names its index.
func (e *CPUEngine) ProcessBatch(items []Item) (Result, error) {
	if len(items) == 0 {
		return Result{}, fmt.Errorf("preprocess: empty batch")
	}
	var tensors [][]float32
	if e.Materialize {
		tensors = make([][]float32, len(items))
	}
	s := e.getScratch()
	defer e.scratches.Put(s)
	start := time.Now()
	for i, it := range items {
		tensor, err := e.processItem(it, s)
		if err != nil {
			return Result{}, fmt.Errorf("preprocess: item %d: %w", i, err)
		}
		if tensors != nil {
			tensors[i] = tensor
		} else if e.Tensors == nil {
			e.discard.Put(tensor)
		}
	}
	return Result{Tensors: tensors, Seconds: hw.ScaleCPUSeconds(e.Platform, time.Since(start).Seconds())}, nil
}

// NewCV2Engine returns the OpenCV-style engine the paper uses for the
// CRSA dataset: full-resolution perspective rectification followed by
// resize/normalize, all on the CPU.
func NewCV2Engine(p *hw.Platform, out int) *CPUEngine {
	return &CPUEngine{Platform: p, Out: out, Label: "CV2", FullResWarp: true}
}
