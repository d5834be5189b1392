package core

import (
	"context"
	"errors"
	"io"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"harvest/internal/imaging"
	"harvest/internal/modelio"
	"harvest/internal/models"
	"harvest/internal/preprocess"
	"harvest/internal/serve"
	"harvest/internal/stats"
)

func TestNewDeployment(t *testing.T) {
	srv, err := NewDeployment(DeploymentConfig{Platform: "A100"})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	names := srv.Models()
	if len(names) != 4 {
		t.Fatalf("deployed %d models, want 4", len(names))
	}
	resp, err := srv.Submit(context.Background(), &serve.Request{Model: "ViT_Small", Items: 4})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Items != 4 || resp.ComputeSeconds <= 0 {
		t.Errorf("response %+v", resp)
	}
}

func TestNewDeploymentErrors(t *testing.T) {
	if _, err := NewDeployment(DeploymentConfig{Platform: "H100"}); err == nil {
		t.Error("unknown platform accepted")
	}
	if _, err := NewDeployment(DeploymentConfig{Platform: "A100", Models: []string{"ghost"}}); err == nil {
		t.Error("unknown model accepted")
	}
}

func TestNewDeploymentSubsetJetson(t *testing.T) {
	srv, err := NewDeployment(DeploymentConfig{
		Platform: "Jetson", Models: []string{"ViT_Tiny"}, Instances: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cfg, err := srv.ModelConfigFor("ViT_Tiny")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Instances != 2 {
		t.Errorf("instances %d", cfg.Instances)
	}
	// Jetson ViT_Tiny engine max batch is 196.
	if cfg.MaxBatch != 196 {
		t.Errorf("derived max batch %d, want 196", cfg.MaxBatch)
	}
}

func TestNewDeploymentWithPreprocessing(t *testing.T) {
	srv, err := NewDeployment(DeploymentConfig{
		Platform: "A100", Models: []string{"ViT_Tiny", "ViT_Base"},
		Preproc: "cpu",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	// Each model's preprocessor must target that model's input size.
	for name, want := range map[string]int{"ViT_Tiny": 32, "ViT_Base": 224} {
		cfg, err := srv.ModelConfigFor(name)
		if err != nil {
			t.Fatal(err)
		}
		if cfg.Preproc == nil || cfg.Preproc.OutRes() != want {
			t.Errorf("%s preprocessor %v, want OutRes %d", name, cfg.Preproc, want)
		}
		if cfg.InputSize != want {
			t.Errorf("%s InputSize %d, want %d", name, cfg.InputSize, want)
		}
		// The server hands served tensors back through Recycle; without
		// a pool behind it every frame would allocate its tensor.
		if pre, ok := cfg.Preproc.(*preprocess.CPUEngine); !ok || pre.Tensors == nil {
			t.Errorf("%s preprocessor %T recycles no tensors", name, cfg.Preproc)
		}
	}
	// An encoded frame flows through Submit end-to-end.
	im := imaging.Synthesize(64, 48, imaging.KindRows, stats.NewRNG(3))
	data, err := imaging.EncodeBytes(im, imaging.FormatJPEG)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := srv.Submit(context.Background(), &serve.Request{
		Model: "ViT_Tiny", Images: [][]byte{data},
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Items != 1 || resp.PreprocessSeconds <= 0 {
		t.Errorf("response %+v", resp)
	}
}

func TestNewDeploymentPreprocEngines(t *testing.T) {
	for kind, label := range map[string]string{"pytorch": "PyTorch", "cv2": "CV2"} {
		srv, err := NewDeployment(DeploymentConfig{
			Platform: "V100", Models: []string{"ViT_Tiny"}, Preproc: kind,
		})
		if err != nil {
			t.Fatal(err)
		}
		cfg, err := srv.ModelConfigFor("ViT_Tiny")
		if err != nil {
			t.Fatal(err)
		}
		if cfg.Preproc.Name() != label {
			t.Errorf("%s engine label %q, want %q", kind, cfg.Preproc.Name(), label)
		}
		srv.Close()
	}
	if _, err := NewDeployment(DeploymentConfig{Platform: "A100", Preproc: "dali"}); err == nil {
		t.Error("unknown preprocessor accepted")
	}
}

func TestNewDeploymentRealCheckpoint(t *testing.T) {
	// Serving-path weight loading at reduced precision: a ViT_Tiny
	// checkpoint quantized at load into int8 must back the deployment,
	// and a mismatched checkpoint must fail fast with a typed error.
	m, err := models.NewViTModel(models.ViTTinyConfig(1000), stats.NewRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "vit_tiny.hvt")
	if err := modelio.SaveFile(path, func(w io.Writer) error { return modelio.SaveViT(w, m) }); err != nil {
		t.Fatal(err)
	}

	srv, err := NewDeployment(DeploymentConfig{
		Platform: "Jetson", Models: []string{"ViT_Tiny"},
		RealBackend: "int8", RealCheckpoint: path,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	in := make([]float32, 3*32*32)
	for i := range in {
		in[i] = float32(i%13) / 13
	}
	resp, err := srv.Submit(context.Background(), &serve.Request{
		Model: "ViT_Tiny", Inputs: [][]float32{in},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Outputs) != 1 || len(resp.Outputs[0]) != 1000 {
		t.Fatalf("outputs %d x %d, want 1 x 1000", len(resp.Outputs), len(resp.Outputs[0]))
	}

	// Mismatch: the checkpoint is ViT_Tiny; hosting ResNet50 with it
	// must be a startup error, not silent random weights.
	if _, err := NewDeployment(DeploymentConfig{
		Platform: "Jetson", Models: []string{"ResNet50"},
		RealBackend: "int8", RealCheckpoint: path,
	}); !errors.Is(err, modelio.ErrModelMismatch) {
		t.Fatalf("mismatched checkpoint error = %v, want ErrModelMismatch", err)
	}
	// A checkpoint backs exactly one model.
	if _, err := NewDeployment(DeploymentConfig{
		Platform: "Jetson", RealCheckpoint: path,
	}); err == nil {
		t.Fatal("multi-model deployment with one checkpoint accepted")
	}
	// Unknown precision is typed too.
	if _, err := NewDeployment(DeploymentConfig{
		Platform: "Jetson", Models: []string{"ViT_Tiny"},
		RealBackend: "int4", RealCheckpoint: path,
	}); !errors.Is(err, modelio.ErrPrecision) {
		t.Fatalf("bad precision error = %v, want ErrPrecision", err)
	}
}

// TestCloseLeavesNoGoroutines: a deployment that preprocesses encoded
// frames starts no goroutine that outlives Close, at any GOMAXPROCS.
func TestCloseLeavesNoGoroutines(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	im := imaging.Synthesize(64, 48, imaging.KindRows, stats.NewRNG(3))
	data, err := imaging.EncodeBytes(im, imaging.FormatPPM)
	if err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		before := runtime.NumGoroutine()
		srv, err := NewDeployment(DeploymentConfig{
			Platform: "A100", Models: []string{"ViT_Tiny"}, Preproc: "cpu",
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := srv.Submit(context.Background(), &serve.Request{
			Model: "ViT_Tiny", Images: [][]byte{data}, ImageFormat: imaging.FormatPPM,
		}); err != nil {
			t.Fatal(err)
		}
		srv.Close()
		for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > before; runtime.Gosched() {
			if time.Now().After(deadline) {
				t.Fatalf("GOMAXPROCS %d: %d goroutines after Close, %d before NewDeployment",
					procs, runtime.NumGoroutine(), before)
			}
		}
	}
}
