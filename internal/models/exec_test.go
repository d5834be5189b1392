package models

import (
	"errors"
	"math"
	"runtime"
	"testing"

	"harvest/internal/stats"
	"harvest/internal/tensor"
)

func execInput(t *testing.T, name string, batch int) *tensor.Tensor {
	t.Helper()
	sz := 32
	if name == "ResNet_Mini" {
		sz = 64
	}
	x := tensor.New(batch, 3, sz, sz)
	x.RandInit(stats.NewRNG(99), 1)
	return x
}

// logitRange returns max-min over all logits, the natural scale for
// bounding quantization-induced deltas.
func logitRange(y *tensor.Tensor) float64 {
	lo, hi := y.Data[0], y.Data[0]
	for _, v := range y.Data {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return float64(hi - lo)
}

// TestPrecisionBackendsCloseToFP32 runs every reduced-precision backend
// on the micro models and bounds the logit delta against the fp32
// reference, relative to the logit range. fp16/bf16 only round weight
// storage; int8 additionally quantizes activations, so it gets the
// loosest (but still small) bound.
func TestPrecisionBackendsCloseToFP32(t *testing.T) {
	bounds := map[string]float64{PrecFP16: 0.01, PrecBF16: 0.05, PrecInt8: 0.15}
	for _, name := range []string{"ViT_Micro", "ResNet_Mini"} {
		base, err := NewExecutable(name, 10, PrecFP32, stats.NewRNG(1))
		if err != nil {
			t.Fatal(err)
		}
		x := execInput(t, name, 2)
		want, err := base.Forward(x)
		if err != nil {
			t.Fatal(err)
		}
		scale := logitRange(want)
		if scale == 0 {
			t.Fatalf("%s: degenerate fp32 logits", name)
		}
		for prec, bound := range bounds {
			m, err := NewExecutable(name, 10, prec, stats.NewRNG(1))
			if err != nil {
				t.Fatalf("%s %s: %v", name, prec, err)
			}
			got, err := m.Forward(x)
			if err != nil {
				t.Fatalf("%s %s: %v", name, prec, err)
			}
			if d := tensor.MaxAbsDiff(got, want) / scale; d > bound || math.IsNaN(d) {
				t.Errorf("%s %s: relative logit delta %.4f exceeds %.4f", name, prec, d, bound)
			}
		}
	}
}

// TestPrecisionExecutableRetainsNoFP32Weights: an int8 ViT_Tiny
// executable keeps its 5.5 MB of codes, not the 22 MB of float32 linear
// weights it was converted from, which its forward never reads.
func TestPrecisionExecutableRetainsNoFP32Weights(t *testing.T) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	m, err := NewExecutable(NameViTTiny, 1000, PrecInt8, stats.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(m)
	if retained := int64(after.HeapAlloc) - int64(before.HeapAlloc); retained > 10<<20 {
		t.Errorf("int8 ViT_Tiny executable retains %.1f MB of heap, want at most 10 MB", float64(retained)/(1<<20))
	}

	// The same, structurally, on both families: an int8 copy holds no
	// float32 linear or conv weight, in its fields or in its op table.
	for _, name := range []string{"ViT_Micro", "ResNet_Mini"} {
		q, err := NewExecutable(name, 10, PrecInt8, stats.NewRNG(1))
		if err != nil {
			t.Fatal(err)
		}
		var weights []*tensor.Tensor
		var lins []linearOp
		switch m := q.(type) {
		case *ViTModel:
			weights = append(weights, m.patchW, m.headW)
			lins = append(lins, m.exec.patch, m.exec.head)
			for i, blk := range m.blocks {
				weights = append(weights, blk.qkvW, blk.projW, blk.fc1W, blk.fc2W)
				ops := m.exec.blocks[i]
				lins = append(lins, ops.qkv, ops.proj, ops.fc1, ops.fc2)
			}
		case *ResNetModel:
			if m.stem != nil || m.blocks != nil {
				t.Errorf("%s int8 copy keeps the float32 convs", name)
			}
			weights = append(weights, m.fcW)
			lins = append(lins, m.exec.fc)
			convs := []convOp{m.exec.stem}
			for _, ops := range m.exec.blocks {
				convs = append(convs, ops.conv1, ops.conv2, ops.conv3)
				if ops.down != nil {
					convs = append(convs, ops.down)
				}
			}
			for _, c := range convs {
				if cv, ok := c.(*conv); ok {
					lins = append(lins, cv.lin)
				} else {
					t.Errorf("%s int8 copy runs a %T conv", name, c)
				}
			}
		default:
			t.Fatalf("%s int8 executable is a %T", name, q)
		}
		for _, w := range weights {
			if w != nil {
				t.Errorf("%s int8 copy keeps a float32 weight of shape %v", name, w.Shape)
			}
		}
		for _, l := range lins {
			if _, ok := l.(q7Linear); !ok {
				t.Errorf("%s int8 copy runs a %T linear", name, l)
			}
		}
	}
}

func TestNewExecutableErrors(t *testing.T) {
	if _, err := NewExecutable("NoSuchModel", 10, PrecFP32, stats.NewRNG(1)); err == nil {
		t.Error("unknown model accepted")
	}
	if _, err := NewExecutable("ViT_Micro", 10, "int4", stats.NewRNG(1)); err == nil {
		t.Error("unknown precision accepted")
	}
	// At: "" and fp32 are the model itself; an unknown precision errors.
	vit, err := NewViTModel(MicroViTConfig(10), stats.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	res, err := NewResNetModel(MiniResNetConfig(10), stats.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []interface {
		Executor
		At(string) (Executor, error)
	}{vit, res} {
		for _, prec := range []string{"", PrecFP32} {
			if e, err := m.At(prec); err != nil || e != m {
				t.Errorf("%T.At(%q) = %T, %v; want the receiver", m, prec, e, err)
			}
		}
		if e, err := m.At("int4"); err == nil {
			t.Errorf("%T.At(int4) = %T, want an error", m, e)
		}
	}
}

func TestPrecisionBadInputShape(t *testing.T) {
	for _, prec := range ExecPrecisions() {
		m, err := NewExecutable("ViT_Micro", 10, prec, stats.NewRNG(1))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Forward(tensor.New(1, 3, 16, 16)); !errors.Is(err, tensor.ErrShape) {
			t.Errorf("%s: wrong-shape input returned %v, want ErrShape", prec, err)
		}
	}
}

// TestLoadTensorsShapeChecked is the regression test for assignTensor
// accepting any same-length tensor: a transposed weight must now be
// rejected at load time with a typed shape error.
func TestLoadTensorsShapeChecked(t *testing.T) {
	m, err := NewViTModel(MicroViTConfig(10), stats.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	lookup := map[string]*tensor.Tensor{}
	for _, nt := range m.NamedTensors() {
		lookup[nt.Name] = nt.Tensor.Clone()
	}
	// Same element count, transposed shape: patchW is (d x 3p²).
	w := lookup["patch_embed.weight"]
	lookup["patch_embed.weight"] = w.Reshape(w.Shape[1], w.Shape[0])
	err = m.LoadTensors(lookup)
	if err == nil {
		t.Fatal("transposed weight accepted by LoadTensors")
	}
	if !errors.Is(err, tensor.ErrShape) {
		t.Fatalf("shape mismatch error %v is not typed as tensor.ErrShape", err)
	}
}

// TestViTBaseInt8LogitsDelta is the end-to-end accuracy bound on the
// full-size ViT_Base: int8 logits must stay within a small fraction of
// the fp32 logit range. ~17 GMACs under fp32 plus the int8 pass; kept
// out of -short and race runs.
func TestViTBaseInt8LogitsDelta(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("full-size ViT_Base forward is too heavy for -short/race runs")
	}
	base, err := NewExecutable(NameViTBase, 1000, PrecFP32, stats.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.New(1, 3, 224, 224)
	x.RandInit(stats.NewRNG(99), 1)
	want, err := base.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	q, err := base.(*ViTModel).At(PrecInt8)
	if err != nil {
		t.Fatal(err)
	}
	got, err := q.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	scale := logitRange(want)
	if scale == 0 {
		t.Fatal("degenerate fp32 logits")
	}
	if d := tensor.MaxAbsDiff(got, want) / scale; d > 0.15 {
		t.Errorf("ViT_Base int8 relative logit delta %.4f exceeds 0.15", d)
	}
}
