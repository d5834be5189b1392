package engine

import (
	"errors"
	"math"
	"testing"

	"harvest/internal/hw"
	"harvest/internal/models"
	"harvest/internal/stats"
	"harvest/internal/tensor"
)

func TestNewUnknownModel(t *testing.T) {
	if _, err := New(hw.A100(), "NoSuchModel"); err == nil {
		t.Error("unknown model accepted")
	}
}

func TestInferStatsConsistency(t *testing.T) {
	eng, err := New(hw.A100(), models.NameViTSmall)
	if err != nil {
		t.Fatal(err)
	}
	st, err := eng.Infer(32)
	if err != nil {
		t.Fatal(err)
	}
	if st.Batch != 32 {
		t.Errorf("batch %d", st.Batch)
	}
	if math.Abs(st.ImgPerSec*st.Seconds-32) > 1e-6 {
		t.Errorf("throughput*latency = %v, want 32", st.ImgPerSec*st.Seconds)
	}
	wantTF := st.ImgPerSec * eng.Entry.Spec.GFLOPsPerImage() / 1000
	if math.Abs(st.TFLOPS-wantTF) > 0.01 {
		t.Errorf("TFLOPS %v inconsistent with throughput (want %v)", st.TFLOPS, wantTF)
	}
	if st.MFU <= 0 || st.MFU > 1 {
		t.Errorf("MFU %v out of range", st.MFU)
	}
}

func TestInferErrors(t *testing.T) {
	eng, err := New(hw.A100(), models.NameViTTiny)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Infer(0); err == nil {
		t.Error("zero batch accepted")
	}
	if _, err := eng.Infer(-1); err == nil {
		t.Error("negative batch accepted")
	}
}

func TestOOMBoundariesMatchPaper(t *testing.T) {
	// Engine-only boundaries from Fig. 5/6 on Jetson.
	cases := []struct {
		model string
		max   int
	}{
		{models.NameViTTiny, 196},
		{models.NameViTSmall, 64},
		{models.NameViTBase, 8},
		{models.NameResNet50, 64},
	}
	for _, c := range cases {
		eng, err := New(hw.Jetson(), c.model)
		if err != nil {
			t.Fatal(err)
		}
		if got := eng.MaxBatch(0); got != c.max {
			t.Errorf("Jetson %s engine max batch %d, want %d", c.model, got, c.max)
		}
		if _, err := eng.Infer(c.max); err != nil {
			t.Errorf("Jetson %s batch %d should fit: %v", c.model, c.max, err)
		}
		// The next sweep point must OOM.
		sweep := hw.BatchSweep(hw.KeyJetson)
		for i, b := range sweep {
			if b == c.max && i+1 < len(sweep) {
				if _, err := eng.Infer(sweep[i+1]); !errors.Is(err, ErrOOM) {
					t.Errorf("Jetson %s batch %d should OOM, got %v", c.model, sweep[i+1], err)
				}
			}
		}
	}
}

func TestPipelineModeShrinksMaxBatch(t *testing.T) {
	eng, err := New(hw.V100(), models.NameViTBase)
	if err != nil {
		t.Fatal(err)
	}
	engineMax := eng.MaxBatch(0)
	eng.Pipeline = true
	pipeMax := eng.MaxBatch(hw.EndToEndMaxBatch)
	if pipeMax != 2 {
		t.Errorf("V100 ViT_Base pipeline max %d, want 2 (Fig. 8)", pipeMax)
	}
	if engineMax <= pipeMax {
		t.Errorf("pipeline max %d not below engine max %d", pipeMax, engineMax)
	}
}

func TestSweepMarksOOM(t *testing.T) {
	eng, err := New(hw.Jetson(), models.NameViTBase)
	if err != nil {
		t.Fatal(err)
	}
	res := eng.Sweep()
	if len(res) != len(hw.JetsonBatchSweep) {
		t.Fatalf("sweep has %d points", len(res))
	}
	sawOOM := false
	for _, r := range res {
		if r.OOM {
			sawOOM = true
			if r.Batch <= 8 {
				t.Errorf("batch %d marked OOM but should fit", r.Batch)
			}
		} else if r.Seconds <= 0 {
			t.Errorf("batch %d has no latency", r.Batch)
		}
	}
	if !sawOOM {
		t.Error("sweep found no OOM point for Jetson ViT_Base")
	}
}

func TestThroughputIncreasesWithBatch(t *testing.T) {
	eng, err := New(hw.V100(), models.NameResNet50)
	if err != nil {
		t.Fatal(err)
	}
	prev := 0.0
	for _, b := range []int{1, 4, 16, 64, 256, 1024} {
		st, err := eng.Infer(b)
		if err != nil {
			t.Fatal(err)
		}
		if st.ImgPerSec <= prev {
			t.Errorf("throughput not increasing at batch %d", b)
		}
		prev = st.ImgPerSec
	}
}

func TestInferTensorsRequiresBackend(t *testing.T) {
	eng, err := New(hw.A100(), models.NameViTTiny)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := eng.InferTensors([][]float32{make([]float32, 3*32*32)}, 32); err == nil {
		t.Error("InferTensors without backend accepted")
	}
}

func TestInferTensorsRealBackend(t *testing.T) {
	eng, err := New(hw.A100(), models.NameViTTiny)
	if err != nil {
		t.Fatal(err)
	}
	const classes = 5
	real, err := models.NewViTModel(models.MicroViTConfig(classes), stats.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	eng.Real = real
	rng := stats.NewRNG(4)
	inputs := make([][]float32, 3)
	for i := range inputs {
		in := make([]float32, 3*32*32)
		for j := range in {
			in[j] = float32(rng.Float64()*2 - 1)
		}
		inputs[i] = in
	}
	outputs, st, err := eng.InferTensors(inputs, 32)
	if err != nil {
		t.Fatal(err)
	}
	if len(outputs) != 3 {
		t.Fatalf("got %d outputs", len(outputs))
	}
	for _, o := range outputs {
		if len(o) != classes || cap(o) != classes {
			t.Fatalf("output width %d, capacity %d", len(o), cap(o))
		}
	}
	// The rows share one logits tensor: an append to one must not
	// write into the next.
	next := outputs[1][0]
	_ = append(outputs[0], 42)
	if outputs[1][0] != next {
		t.Error("appending to row 0 overwrote row 1")
	}
	if st.Batch != 3 || st.Seconds <= 0 {
		t.Errorf("stats %+v", st)
	}
	// Wrong input length must be rejected.
	if _, _, err := eng.InferTensors([][]float32{make([]float32, 7)}, 32); err == nil {
		t.Error("bad input length accepted")
	}
	if _, _, err := eng.InferTensors(nil, 32); err == nil {
		t.Error("empty inputs accepted")
	}
}

func TestAllPlatformModelPairsConstruct(t *testing.T) {
	for _, p := range hw.All() {
		for _, m := range models.Names() {
			eng, err := New(p, m)
			if err != nil {
				t.Errorf("%s/%s: %v", p.Name, m, err)
				continue
			}
			if eng.MaxBatch(0) < 1 {
				t.Errorf("%s/%s cannot fit batch 1", p.Name, m)
			}
		}
	}
}

// TestSweepRecordsErrors verifies no sweep point vanishes silently:
// failed points carry the causing error (OOM points wrap ErrOOM) and
// healthy points carry none.
func TestSweepRecordsErrors(t *testing.T) {
	eng, err := New(hw.Jetson(), models.NameViTBase)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range eng.Sweep() {
		switch {
		case r.OOM:
			if !errors.Is(r.Err, ErrOOM) {
				t.Errorf("batch %d marked OOM but Err=%v does not wrap ErrOOM", r.Batch, r.Err)
			}
		case r.Err != nil:
			t.Errorf("batch %d: unexpected sweep error %v", r.Batch, r.Err)
		default:
			if r.Seconds <= 0 {
				t.Errorf("batch %d has neither stats nor error", r.Batch)
			}
		}
	}
}

// panicForwarder stands in for a malformed real backend whose forward
// pass panics deep inside a kernel.
type panicForwarder struct{}

func (panicForwarder) Forward(x *tensor.Tensor) (*tensor.Tensor, error) {
	panic(tensor.ErrShape)
}

func TestInferTensorsRecoversPanic(t *testing.T) {
	eng, err := New(hw.A100(), models.NameViTTiny)
	if err != nil {
		t.Fatal(err)
	}
	eng.Real = panicForwarder{}
	_, _, err = eng.InferTensors([][]float32{make([]float32, 3*32*32)}, 32)
	if err == nil {
		t.Fatal("panicking backend returned no error")
	}
	if !errors.Is(err, ErrBackend) {
		t.Fatalf("recovered panic yields %v, want ErrBackend", err)
	}
}

func TestAttachReal(t *testing.T) {
	eng, err := New(hw.A100(), models.NameViTTiny)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.AttachReal("int4", 1); err == nil {
		t.Error("unknown precision accepted")
	}
	if eng.Real != nil {
		t.Fatal("failed AttachReal left a backend attached")
	}
	if err := eng.AttachReal("fp32", 1); err != nil {
		t.Fatal(err)
	}
	sz := eng.Entry.Spec.InputSize
	in := make([]float32, 3*sz*sz)
	for i := range in {
		in[i] = float32(i%7)/7 - 0.5
	}
	out, st, err := eng.InferTensors([][]float32{in}, sz)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || len(out[0]) != eng.Entry.Spec.NumClasses {
		t.Fatalf("got %d outputs of width %d", len(out), len(out[0]))
	}
	if st.Batch != 1 {
		t.Errorf("stats %+v", st)
	}
}
