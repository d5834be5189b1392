package models

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"harvest/internal/stats"
	"harvest/internal/tensor"
)

func relErr(got, want float64) float64 {
	return math.Abs(got-want) / math.Abs(want)
}

func TestTable3GFLOPsMatchPaper(t *testing.T) {
	for _, e := range MustTable3() {
		if re := relErr(e.Spec.GFLOPsPerImage(), e.PaperGFLOPs); re > 0.01 {
			t.Errorf("%s GFLOPs %.3f vs paper %.2f (err %.2f%%)",
				e.Spec.Name, e.Spec.GFLOPsPerImage(), e.PaperGFLOPs, re*100)
		}
	}
}

func TestTable3ParamsMatchPaper(t *testing.T) {
	for _, e := range MustTable3() {
		if re := relErr(float64(e.Spec.Params())/1e6, e.PaperParamsM); re > 0.05 {
			t.Errorf("%s params %.2fM vs paper %.2fM (err %.2f%%)",
				e.Spec.Name, float64(e.Spec.Params())/1e6, e.PaperParamsM, re*100)
		}
	}
}

func TestViTTinyBreakdownAnchors(t *testing.T) {
	// Paper §4.0.2: ViT-Tiny MLP 81.73%, attention 18.23%.
	e, err := ByName(NameViTTiny)
	if err != nil {
		t.Fatal(err)
	}
	mlp, attn := e.Spec.MLPAttentionShares()
	if math.Abs(mlp*100-81.73) > 0.5 {
		t.Errorf("ViT_Tiny MLP share %.2f%%, paper 81.73%%", mlp*100)
	}
	if math.Abs(attn*100-18.23) > 0.5 {
		t.Errorf("ViT_Tiny attention share %.2f%%, paper 18.23%%", attn*100)
	}
}

func TestResNet50ConvShareAnchor(t *testing.T) {
	// Paper §4.0.2: convolutions are 99.5% of ResNet50 compute.
	e, err := ByName(NameResNet50)
	if err != nil {
		t.Fatal(err)
	}
	conv := e.Spec.BreakdownByKind()[KindConv]
	if conv < 0.99 {
		t.Errorf("ResNet50 conv share %.4f, want >= 0.99", conv)
	}
}

func TestResNet50ExactMACs(t *testing.T) {
	// The canonical ResNet-50 @224 with 1000 classes is 4.09 GMACs.
	spec, err := BuildResNet(ResNet50Config(1000))
	if err != nil {
		t.Fatal(err)
	}
	g := spec.GFLOPsPerImage()
	if g < 4.05 || g > 4.13 {
		t.Errorf("ResNet50 GMACs %.3f, want ~4.09", g)
	}
	if p := spec.Params(); p < 25_400_000 || p > 25_700_000 {
		t.Errorf("ResNet50 params %d, want ~25.56M", p)
	}
}

func TestViTSeqLens(t *testing.T) {
	if n := ViTTinyConfig(10).SeqLen(); n != 257 {
		t.Errorf("ViT tiny seq %d, want 257 (16x16 patches + cls)", n)
	}
	if n := ViTBaseConfig(10).SeqLen(); n != 197 {
		t.Errorf("ViT base seq %d, want 197 (14x14 patches + cls)", n)
	}
}

func TestSpecAccountingInvariants(t *testing.T) {
	for _, e := range MustTable3() {
		s := e.Spec
		if err := s.Validate(); err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		if s.ParamMACs() > s.TotalMACs() {
			t.Errorf("%s param MACs exceed total", s.Name)
		}
		if s.WeightBytes(2) != 2*s.Params() {
			t.Errorf("%s weight bytes wrong", s.Name)
		}
		shares := 0.0
		for _, v := range s.BreakdownByKind() {
			shares += v
		}
		if math.Abs(shares-1) > 1e-9 {
			t.Errorf("%s breakdown sums to %v", s.Name, shares)
		}
	}
}

func TestViTConfigValidate(t *testing.T) {
	bad := []ViTConfig{
		{Name: "x", InputSize: 30, PatchSize: 16, Dim: 64, Depth: 1, Heads: 2, MLPRatio: 4, NumClasses: 2},
		{Name: "x", InputSize: 32, PatchSize: 16, Dim: 65, Depth: 1, Heads: 2, MLPRatio: 4, NumClasses: 2},
		{Name: "x", InputSize: 32, PatchSize: 16, Dim: 64, Depth: 0, Heads: 2, MLPRatio: 4, NumClasses: 2},
		{Name: "x", InputSize: 32, PatchSize: 16, Dim: 64, Depth: 1, Heads: 2, MLPRatio: 4, NumClasses: 0},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
		if _, err := BuildViT(c); err == nil {
			t.Errorf("case %d: BuildViT accepted", i)
		}
		if _, err := NewViTModel(c, stats.NewRNG(1)); err == nil {
			t.Errorf("case %d: NewViTModel accepted", i)
		}
	}
}

func TestResNetConfigValidate(t *testing.T) {
	bad := []ResNetConfig{
		{Name: "x", InputSize: 64, NumClasses: 2, BaseWidth: 8, StemWidth: 8},
		{Name: "x", InputSize: 8, NumClasses: 2, StageBlocks: []int{1}, BaseWidth: 8, StemWidth: 8},
		{Name: "x", InputSize: 64, NumClasses: 0, StageBlocks: []int{1}, BaseWidth: 8, StemWidth: 8},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestRegistry(t *testing.T) {
	if len(Names()) != 4 {
		t.Fatal("want 4 model names")
	}
	for _, n := range Names() {
		e, err := ByName(n)
		if err != nil {
			t.Errorf("ByName(%s): %v", n, err)
		}
		if e.Spec.Name != n {
			t.Errorf("ByName(%s) returned %s", n, e.Spec.Name)
		}
	}
	if _, err := ByName("AlexNet"); err == nil {
		t.Error("unknown model accepted")
	}
}

func TestViTForwardShapesAndDeterminism(t *testing.T) {
	cfg := MicroViTConfig(7)
	m, err := NewViTModel(cfg, stats.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.New(2, 3, cfg.InputSize, cfg.InputSize)
	x.RandInit(stats.NewRNG(4), 1)
	y1, err := m.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	if y1.Shape[0] != 2 || y1.Shape[1] != 7 {
		t.Fatalf("logits shape %v", y1.Shape)
	}
	y2, err := m.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	if d := tensor.MaxAbsDiff(y1, y2); d != 0 {
		t.Errorf("forward not deterministic: %v", d)
	}
	for _, v := range y1.Data {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			t.Fatal("non-finite logits")
		}
	}
}

// TestViTForwardBatchConsistency: a batch's logits equal its images'
// single forwards bit for bit, and equal themselves under GOMAXPROCS 1,
// 2 and 4 — every output row is summed in the same order however the
// batch is stacked, banded or split into edge tiles. This is what lets
// a served answer equal a direct Forward whatever batch the scheduler
// formed. int8 holds too: activations are quantized per row and the
// integer product is exact.
func TestViTForwardBatchConsistency(t *testing.T) {
	for _, name := range []string{"ViT_Micro", NameViTTiny} {
		for _, prec := range []string{PrecFP32, PrecInt8} {
			m, err := NewExecutable(name, 5, prec, stats.NewRNG(6))
			if err != nil {
				t.Fatal(err)
			}
			x := execInput(t, name, 2)
			want := mustForward(t, m, x)
			per := len(x.Data) / 2
			for b := 0; b < 2; b++ {
				single := tensor.FromSlice(x.Data[b*per:(b+1)*per], 1, 3, x.Shape[2], x.Shape[3])
				requireSameBits(t, name+" "+prec+" single image", mustForward(t, m, single).Data, want.Data[b*5:(b+1)*5])
			}
			for _, procs := range []int{1, 2, 4} {
				prev := runtime.GOMAXPROCS(procs)
				got := mustForward(t, m, x)
				runtime.GOMAXPROCS(prev)
				requireSameBits(t, fmt.Sprintf("%s %s GOMAXPROCS=%d", name, prec, procs), got.Data, want.Data)
			}
		}
	}
}

func mustForward(t *testing.T, m Executor, x *tensor.Tensor) *tensor.Tensor {
	t.Helper()
	y, err := m.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	return y
}

func requireSameBits(t *testing.T, what string, got, want []float32) {
	t.Helper()
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s: logit %d is %v, want %v bit for bit", what, i, got[i], want[i])
		}
	}
}

func TestViTForwardInputValidation(t *testing.T) {
	m, err := NewViTModel(MicroViTConfig(3), stats.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Forward(tensor.New(1, 3, 16, 16)); err == nil {
		t.Error("wrong input size accepted")
	}
	if _, err := m.Forward(tensor.New(1, 1, 32, 32)); err == nil {
		t.Error("wrong channel count accepted")
	}
}

func TestViTInputSensitivity(t *testing.T) {
	// Different inputs should produce different logits.
	cfg := MicroViTConfig(4)
	m, err := NewViTModel(cfg, stats.NewRNG(8))
	if err != nil {
		t.Fatal(err)
	}
	a := tensor.New(1, 3, 32, 32)
	b := tensor.New(1, 3, 32, 32)
	a.RandInit(stats.NewRNG(9), 1)
	b.RandInit(stats.NewRNG(10), 1)
	ya, _ := m.Forward(a)
	yb, _ := m.Forward(b)
	if tensor.MaxAbsDiff(ya, yb) == 0 {
		t.Error("model output insensitive to input")
	}
}

func TestResNetForward(t *testing.T) {
	cfg := MiniResNetConfig(6)
	m, err := NewResNetModel(cfg, stats.NewRNG(11))
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.New(2, 3, cfg.InputSize, cfg.InputSize)
	x.RandInit(stats.NewRNG(12), 1)
	y, err := m.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	if y.Shape[0] != 2 || y.Shape[1] != 6 {
		t.Fatalf("resnet logits shape %v", y.Shape)
	}
	for _, v := range y.Data {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			t.Fatal("non-finite resnet logits")
		}
	}
	if _, err := m.Forward(tensor.New(1, 3, 32, 32)); err == nil {
		t.Error("wrong resnet input accepted")
	}
}

func TestResNetForwardDeterministic(t *testing.T) {
	cfg := MiniResNetConfig(3)
	m, err := NewResNetModel(cfg, stats.NewRNG(13))
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.New(1, 3, cfg.InputSize, cfg.InputSize)
	x.RandInit(stats.NewRNG(14), 1)
	y1, _ := m.Forward(x)
	y2, _ := m.Forward(x)
	if tensor.MaxAbsDiff(y1, y2) != 0 {
		t.Error("resnet forward not deterministic")
	}
}

func TestBuildViTIRvsRealModelAgreeOnParams(t *testing.T) {
	// The IR's parameter count must match the real model's allocation.
	cfg := MicroViTConfig(7)
	spec, err := BuildViT(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewViTModel(cfg, stats.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	real := int64(m.patchW.Len() + m.patchB.Len() + m.posEmbed.Len() + m.clsToken.Len() +
		m.normG.Len() + m.normB.Len() + m.headW.Len() + m.headB.Len())
	for _, b := range m.blocks {
		real += int64(b.norm1G.Len() + b.norm1B.Len() + b.qkvW.Len() + b.qkvB.Len() +
			b.projW.Len() + b.projB.Len() + b.norm2G.Len() + b.norm2B.Len() +
			b.fc1W.Len() + b.fc1B.Len() + b.fc2W.Len() + b.fc2B.Len())
	}
	if real != spec.Params() {
		t.Errorf("IR params %d != real model params %d", spec.Params(), real)
	}
}

func TestArchitectureString(t *testing.T) {
	if ArchTransformer.String() != "Transformer Based" || ArchCNN.String() != "CNN Based" {
		t.Error("architecture names wrong")
	}
}

func TestLayerKindString(t *testing.T) {
	names := map[LayerKind]string{
		KindConv: "conv", KindLinear: "linear", KindAttnMatmul: "attn-matmul",
		KindNorm: "norm", KindPool: "pool", KindAct: "act", KindEmbed: "embed",
	}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("kind %d = %q, want %q", k, k.String(), want)
		}
	}
}

func TestSpecValidateRejects(t *testing.T) {
	bad := []*Spec{
		{},
		{Name: "x", InputSize: 0, Layers: []Layer{{}}},
		{Name: "x", InputSize: 8},
		{Name: "x", InputSize: 8, Layers: []Layer{{MACs: -1}}},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}
