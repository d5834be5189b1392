package modelio

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"

	"harvest/internal/models"
)

// Typed failures of the serving-path checkpoint loader. Callers (the
// deployment builder, harvest-serve startup) match these to fail fast
// instead of silently serving random weights.
var (
	// ErrPrecision reports a serving precision the loader cannot build
	// an executable backend at.
	ErrPrecision = errors.New("modelio: unsupported serving precision")
	// ErrModelMismatch reports a checkpoint whose kind or geometry does
	// not match the model the server is hosting.
	ErrModelMismatch = errors.New("modelio: checkpoint does not match served model")
)

// ExecutableInfo describes the model a checkpoint reconstructs, for
// validation against the serving entry it is meant to back.
type ExecutableInfo struct {
	Name       string
	InputSize  int
	NumClasses int
}

// Executable reconstructs a checkpoint's model as a real
// forward-capable backend at the requested precision ("fp32", "fp16",
// "bf16", "int8"; empty means fp32). Reduced precisions quantize the
// checkpoint's fp32 weights at load time through the same wrappers the
// random-init path uses, so `-real int8` with a checkpoint serves the
// trained weights instead of silently re-initializing random ones.
func Executable(cp *Checkpoint, precision string) (models.Executor, ExecutableInfo, error) {
	if precision == "" {
		precision = models.PrecFP32
	}
	known := false
	for _, p := range models.ExecPrecisions() {
		if p == precision {
			known = true
			break
		}
	}
	if !known {
		return nil, ExecutableInfo{}, fmt.Errorf("%w: %q (want one of %v)",
			ErrPrecision, precision, models.ExecPrecisions())
	}
	switch cp.Kind {
	case KindViT:
		m, err := LoadViT(cp)
		if err != nil {
			return nil, ExecutableInfo{}, err
		}
		info := ExecutableInfo{Name: m.Config.Name, InputSize: m.Config.InputSize, NumClasses: m.Config.NumClasses}
		if precision == models.PrecFP32 {
			return m, info, nil
		}
		pm, err := models.NewPrecisionViT(m, precision)
		if err != nil {
			return nil, ExecutableInfo{}, fmt.Errorf("%w: %v", ErrPrecision, err)
		}
		return pm, info, nil
	case KindResNet:
		m, err := LoadResNet(cp)
		if err != nil {
			return nil, ExecutableInfo{}, err
		}
		info := ExecutableInfo{Name: m.Config.Name, InputSize: m.Config.InputSize, NumClasses: m.Config.NumClasses}
		if precision == models.PrecFP32 {
			return m, info, nil
		}
		pm, err := models.NewPrecisionResNet(m, precision)
		if err != nil {
			return nil, ExecutableInfo{}, fmt.Errorf("%w: %v", ErrPrecision, err)
		}
		return pm, info, nil
	}
	return nil, ExecutableInfo{}, fmt.Errorf("%w: unknown checkpoint kind %q", ErrModelMismatch, cp.Kind)
}

// ExecutableFor builds the serving backend for one named model entry
// from a checkpoint, verifying the checkpoint actually is that model
// (name, input resolution, class count) before any weight touches an
// engine. Mismatches return ErrModelMismatch.
func ExecutableFor(cp *Checkpoint, name string, inputSize, numClasses int, precision string) (models.Executor, error) {
	f, info, err := Executable(cp, precision)
	if err != nil {
		return nil, err
	}
	if info.Name != name {
		return nil, fmt.Errorf("%w: checkpoint holds %q, server hosts %q", ErrModelMismatch, info.Name, name)
	}
	if info.InputSize != inputSize || info.NumClasses != numClasses {
		return nil, fmt.Errorf("%w: checkpoint %s is %d px / %d classes, served entry wants %d px / %d classes",
			ErrModelMismatch, info.Name, info.InputSize, info.NumClasses, inputSize, numClasses)
	}
	return f, nil
}

// LoadFile reads and verifies a checkpoint from disk. Reads are
// buffered: Load consumes the stream in 4-byte values, which against a
// bare file descriptor is one syscall per weight.
func LoadFile(path string) (*Checkpoint, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("modelio: %w", err)
	}
	defer f.Close()
	return Load(bufio.NewReaderSize(f, 1<<20))
}

// SaveFile writes a checkpoint of one model (ViT or ResNet) to disk,
// buffered for the same reason LoadFile is.
func SaveFile(path string, save func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("modelio: %w", err)
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	if err := save(bw); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
