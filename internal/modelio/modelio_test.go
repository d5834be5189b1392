package modelio

import (
	"bytes"
	"encoding/binary"
	"testing"

	"harvest/internal/models"
	"harvest/internal/stats"
	"harvest/internal/tensor"
)

func newViT(t testing.TB) *models.ViTModel {
	t.Helper()
	m, err := models.NewViTModel(models.MicroViTConfig(5), stats.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func newResNet(t testing.TB) *models.ResNetModel {
	t.Helper()
	m, err := models.NewResNetModel(models.MiniResNetConfig(4), stats.NewRNG(2))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestViTSaveLoadRoundTrip(t *testing.T) {
	m := newViT(t)
	var buf bytes.Buffer
	if err := SaveViT(&buf, m); err != nil {
		t.Fatal(err)
	}
	cp, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if cp.Kind != KindViT {
		t.Fatalf("kind %q", cp.Kind)
	}
	back, err := LoadViT(cp)
	if err != nil {
		t.Fatal(err)
	}
	// The reloaded model must produce bit-identical outputs.
	x := tensor.New(1, 3, 32, 32)
	x.RandInit(stats.NewRNG(3), 1)
	y1, err := m.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	y2, err := back.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	if d := tensor.MaxAbsDiff(y1, y2); d != 0 {
		t.Errorf("round-tripped ViT outputs differ by %v", d)
	}
}

func TestResNetSaveLoadRoundTrip(t *testing.T) {
	m := newResNet(t)
	var buf bytes.Buffer
	if err := SaveResNet(&buf, m); err != nil {
		t.Fatal(err)
	}
	cp, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	back, err := LoadResNet(cp)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.New(1, 3, 64, 64)
	x.RandInit(stats.NewRNG(4), 1)
	y1, err := m.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	y2, err := back.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	if d := tensor.MaxAbsDiff(y1, y2); d != 0 {
		t.Errorf("round-tripped ResNet outputs differ by %v", d)
	}
}

func TestChecksumDetectsCorruption(t *testing.T) {
	m := newViT(t)
	var buf bytes.Buffer
	if err := SaveViT(&buf, m); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Flip one bit in the tensor payload region.
	data[len(data)/2] ^= 0x01
	if _, err := Load(bytes.NewReader(data)); err == nil {
		t.Error("corrupted checkpoint accepted")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("not a checkpoint"),
		[]byte(Magic), // magic only
		overflowCheckpoint(),
	}
	for i, data := range cases {
		if _, err := Load(bytes.NewReader(data)); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

// overflowCheckpoint is a checkpoint header whose one tensor's shape
// product wraps int64 to its (negative) declared count.
func overflowCheckpoint() []byte {
	head := `{"kind":"vit","config":{},"tensors":[{"name":"w","shape":[4611686018427387904,3],"count":-4611686018427387904}]}`
	b := binary.LittleEndian.AppendUint32([]byte(Magic), uint32(len(head)))
	return append(b, head...)
}

// FuzzLoad: Load returns an error or a checkpoint whose tensors each
// hold exactly the values their shapes declare; it never panics.
func FuzzLoad(f *testing.F) {
	var vit, resnet bytes.Buffer
	if err := SaveViT(&vit, newViT(f)); err != nil {
		f.Fatal(err)
	}
	if err := SaveResNet(&resnet, newResNet(f)); err != nil {
		f.Fatal(err)
	}
	f.Add(vit.Bytes())
	f.Add(resnet.Bytes())
	f.Add(overflowCheckpoint())
	f.Fuzz(func(t *testing.T, data []byte) {
		cp, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		if len(cp.Order) != len(cp.Tensors) {
			t.Fatalf("%d tensors in order, %d by name", len(cp.Order), len(cp.Tensors))
		}
		for _, name := range cp.Order {
			tt := cp.Tensors[name]
			n := 1
			for _, d := range tt.Shape {
				if d <= 0 {
					t.Fatalf("tensor %q has shape %v", name, tt.Shape)
				}
				n *= d
			}
			if len(tt.Data) != n {
				t.Fatalf("tensor %q of shape %v holds %d values", name, tt.Shape, len(tt.Data))
			}
		}
	})
}

func TestLoadTruncated(t *testing.T) {
	m := newViT(t)
	var buf bytes.Buffer
	if err := SaveViT(&buf, m); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for _, cut := range []int{20, len(data) / 2, len(data) - 2} {
		if _, err := Load(bytes.NewReader(data[:cut])); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
}

func TestKindMismatch(t *testing.T) {
	m := newViT(t)
	var buf bytes.Buffer
	if err := SaveViT(&buf, m); err != nil {
		t.Fatal(err)
	}
	cp, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := LoadResNet(cp); err == nil {
		t.Error("ViT checkpoint loaded as ResNet")
	}
}

func TestBuildEngineFP16PerturbsBounded(t *testing.T) {
	m := newViT(t)
	var buf bytes.Buffer
	if err := SaveViT(&buf, m); err != nil {
		t.Fatal(err)
	}
	cp, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := BuildEngine(cp, "fp16")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Tensors == 0 || rep.Values == 0 {
		t.Errorf("empty build report %+v", rep)
	}
	// Weights are in [-1, 1]-ish; fp16 error there is tiny.
	if rep.MaxAbsError > 1e-3 {
		t.Errorf("fp16 build error %v too large", rep.MaxAbsError)
	}
	// The engine still works and stays close to the fp32 model.
	eng, err := LoadViT(cp)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.New(1, 3, 32, 32)
	x.RandInit(stats.NewRNG(5), 1)
	y32, err := m.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	y16, err := eng.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	if d := tensor.MaxAbsDiff(y32, y16); d > 0.05 {
		t.Errorf("fp16 engine output deviates by %v", d)
	}
	// Agreement on argmax (accuracy proxy).
	if tensor.ArgMax(y32.Data) != tensor.ArgMax(y16.Data) {
		t.Error("fp16 engine changed the prediction")
	}
}

func TestBuildEnginePrecisions(t *testing.T) {
	m := newResNet(t)
	var buf bytes.Buffer
	if err := SaveResNet(&buf, m); err != nil {
		t.Fatal(err)
	}
	for _, prec := range []string{"fp32", "fp16", "bf16"} {
		cp, err := Load(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := BuildEngine(cp, prec)
		if err != nil {
			t.Fatalf("%s: %v", prec, err)
		}
		if prec == "fp32" && rep.MaxAbsError != 0 {
			t.Errorf("fp32 build perturbed weights by %v", rep.MaxAbsError)
		}
		if prec == "bf16" && rep.MaxAbsError == 0 {
			t.Error("bf16 build left weights untouched")
		}
	}
	cp, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BuildEngine(cp, "int4"); err == nil {
		t.Error("unsupported precision accepted")
	}
}

func TestNamedTensorsStableAndComplete(t *testing.T) {
	m := newViT(t)
	a := m.NamedTensors()
	b := m.NamedTensors()
	if len(a) != len(b) || len(a) == 0 {
		t.Fatalf("unstable tensor enumeration: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Name != b[i].Name {
			t.Fatalf("tensor order unstable at %d", i)
		}
	}
	// Missing tensor on load must fail.
	lookup := map[string]*tensor.Tensor{}
	for _, nt := range a[1:] {
		lookup[nt.Name] = nt.Tensor
	}
	if err := m.LoadTensors(lookup); err == nil {
		t.Error("missing tensor accepted")
	}
	// Shape mismatch must fail.
	lookup[a[0].Name] = tensor.New(1)
	if err := m.LoadTensors(lookup); err == nil {
		t.Error("shape mismatch accepted")
	}
}
