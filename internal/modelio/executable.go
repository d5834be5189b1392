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

// Executable reconstructs a checkpoint's float32 model and returns it
// at the requested precision ("fp32", "fp16", "bf16", "int8"; empty
// means fp32) through the model's At, so `-real int8` with a checkpoint
// serves the quantized trained weights instead of silently
// re-initializing random ones.
func Executable(cp *Checkpoint, precision string) (models.Executor, ExecutableInfo, error) {
	var m interface {
		At(precision string) (models.Executor, error)
	}
	var info ExecutableInfo
	switch cp.Kind {
	case KindViT:
		vm, err := LoadViT(cp)
		if err != nil {
			return nil, ExecutableInfo{}, err
		}
		m, info = vm, ExecutableInfo{Name: vm.Config.Name, InputSize: vm.Config.InputSize, NumClasses: vm.Config.NumClasses}
	case KindResNet:
		rm, err := LoadResNet(cp)
		if err != nil {
			return nil, ExecutableInfo{}, err
		}
		m, info = rm, ExecutableInfo{Name: rm.Config.Name, InputSize: rm.Config.InputSize, NumClasses: rm.Config.NumClasses}
	default:
		return nil, ExecutableInfo{}, fmt.Errorf("%w: unknown checkpoint kind %q", ErrModelMismatch, cp.Kind)
	}
	f, err := m.At(precision)
	if err != nil {
		return nil, ExecutableInfo{}, fmt.Errorf("%w: %v", ErrPrecision, err)
	}
	return f, info, nil
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
