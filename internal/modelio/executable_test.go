package modelio

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"harvest/internal/models"
	"harvest/internal/stats"
	"harvest/internal/tensor"
)

func microCheckpoint(t *testing.T) *Checkpoint {
	t.Helper()
	m, err := models.NewViTModel(models.MicroViTConfig(4), stats.NewRNG(11))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveViT(&buf, m); err != nil {
		t.Fatal(err)
	}
	cp, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return cp
}

func microInput() *tensor.Tensor {
	x := tensor.New(1, 3, 32, 32)
	for i := range x.Data {
		x.Data[i] = float32(i%97)/97 - 0.5
	}
	return x
}

// The PR 8 follow-up bug: serving with -real at a reduced precision
// ignored the checkpoint and ran random weights, because checkpoint
// load existed only in fp32. Loading at int8 must now produce the
// quantization of the *trained* weights: identical logits to the
// original fp32 model at int8.
func TestExecutableQuantizesCheckpointWeights(t *testing.T) {
	orig, err := models.NewViTModel(models.MicroViTConfig(4), stats.NewRNG(11))
	if err != nil {
		t.Fatal(err)
	}
	cp := microCheckpoint(t)

	for _, prec := range models.ExecPrecisions() {
		f, info, err := Executable(cp, prec)
		if err != nil {
			t.Fatalf("%s: %v", prec, err)
		}
		if info.Name != "ViT_Micro" || info.InputSize != 32 || info.NumClasses != 4 {
			t.Fatalf("%s: info %+v", prec, info)
		}
		got, err := f.Forward(microInput())
		if err != nil {
			t.Fatalf("%s forward: %v", prec, err)
		}

		ref, err := orig.At(prec)
		var want *tensor.Tensor
		if err == nil {
			want, err = ref.Forward(microInput())
		}
		if err != nil {
			t.Fatalf("%s reference: %v", prec, err)
		}
		for i := range got.Data {
			if math.Abs(float64(got.Data[i]-want.Data[i])) > 1e-6 {
				t.Fatalf("%s: logit %d = %v, want %v (checkpoint weights not used)",
					prec, i, got.Data[i], want.Data[i])
			}
		}
	}
}

func TestExecutableRejectsUnknownPrecision(t *testing.T) {
	cp := microCheckpoint(t)
	if _, _, err := Executable(cp, "int4"); !errors.Is(err, ErrPrecision) {
		t.Fatalf("int4 error = %v, want ErrPrecision", err)
	}
}

func TestExecutableEmptyPrecisionIsFP32(t *testing.T) {
	cp := microCheckpoint(t)
	f, _, err := Executable(cp, "")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := f.(*models.ViTModel); !ok {
		t.Fatalf("empty precision built %T, want *models.ViTModel", f)
	}
}

func TestExecutableForRejectsMismatch(t *testing.T) {
	cp := microCheckpoint(t)
	// Wrong name: the server hosts ViT_Tiny, the file holds ViT_Micro.
	if _, err := ExecutableFor(cp, models.NameViTTiny, 32, 4, "int8"); !errors.Is(err, ErrModelMismatch) {
		t.Fatalf("name mismatch error = %v, want ErrModelMismatch", err)
	}
	// Wrong geometry: class-count drift must fail fast, not misreport.
	if _, err := ExecutableFor(cp, "ViT_Micro", 32, 1000, "int8"); !errors.Is(err, ErrModelMismatch) {
		t.Fatalf("class mismatch error = %v, want ErrModelMismatch", err)
	}
	if _, err := ExecutableFor(cp, "ViT_Micro", 32, 4, "int8"); err != nil {
		t.Fatalf("matching entry rejected: %v", err)
	}
	// Wrong kind byte entirely.
	cp.Kind = "gbm"
	if _, _, err := Executable(cp, "fp32"); !errors.Is(err, ErrModelMismatch) {
		t.Fatalf("kind error = %v, want ErrModelMismatch", err)
	}
}
