// Package modelio implements model serialization and engine building —
// the analogue of the paper's §4.0.2 model flow where models "are
// provided in the platform-neutral ONNX format and internally converted
// to the inference-oriented TensorRT format".
//
// The on-disk format (".hvt") is: a magic string, a JSON header
// describing the model kind, its configuration and a tensor index, the
// raw little-endian float32 tensor data, and a trailing CRC32 over
// everything before it. Building an "engine" from a checkpoint converts
// the weights to the target platform's precision (fp16/bf16) and, for
// CNNs, is where batch-norm folding would occur (this repository's
// ResNet already folds BN at apply time).
package modelio

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"harvest/internal/models"
	"harvest/internal/quant"
	"harvest/internal/tensor"
)

// Magic identifies a HARVEST checkpoint stream.
const Magic = "HARVESTv1\n"

// Kind identifies the serialized model family.
type Kind string

// Supported model kinds.
const (
	KindViT    Kind = "vit"
	KindResNet Kind = "resnet"
)

// tensorEntry is one tensor's index record in the JSON header.
type tensorEntry struct {
	Name  string `json:"name"`
	Shape []int  `json:"shape"`
	// Count is the number of float32 values (product of Shape, stored
	// redundantly for validation).
	Count int `json:"count"`
}

// header is the JSON header of a checkpoint.
type header struct {
	Kind    Kind            `json:"kind"`
	Config  json.RawMessage `json:"config"`
	Tensors []tensorEntry   `json:"tensors"`
}

// Save writes a checkpoint: kind + config + named tensors.
func Save(w io.Writer, kind Kind, config any, tensors []models.NamedTensor) error {
	cfgJSON, err := json.Marshal(config)
	if err != nil {
		return fmt.Errorf("modelio: marshal config: %w", err)
	}
	h := header{Kind: kind, Config: cfgJSON}
	for _, nt := range tensors {
		h.Tensors = append(h.Tensors, tensorEntry{
			Name: nt.Name, Shape: nt.Tensor.Shape, Count: nt.Tensor.Len(),
		})
	}
	headJSON, err := json.Marshal(h)
	if err != nil {
		return fmt.Errorf("modelio: marshal header: %w", err)
	}

	crc := crc32.NewIEEE()
	mw := io.MultiWriter(w, crc)
	if _, err := io.WriteString(mw, Magic); err != nil {
		return err
	}
	if err := binary.Write(mw, binary.LittleEndian, uint32(len(headJSON))); err != nil {
		return err
	}
	if _, err := mw.Write(headJSON); err != nil {
		return err
	}
	buf := make([]byte, 4)
	for _, nt := range tensors {
		for _, v := range nt.Tensor.Data {
			binary.LittleEndian.PutUint32(buf, math.Float32bits(v))
			if _, err := mw.Write(buf); err != nil {
				return err
			}
		}
	}
	return binary.Write(w, binary.LittleEndian, crc.Sum32())
}

// maxTensorValues bounds one checkpoint tensor (1 GiB of float32).
const maxTensorValues = 1 << 28

// Checkpoint is a loaded model file.
type Checkpoint struct {
	Kind    Kind
	Config  json.RawMessage
	Tensors map[string]*tensor.Tensor
	// Order preserves the serialized tensor order.
	Order []string
}

// Load reads and verifies a checkpoint.
func Load(r io.Reader) (*Checkpoint, error) {
	crc := crc32.NewIEEE()
	tr := io.TeeReader(r, crc)

	magic := make([]byte, len(Magic))
	if _, err := io.ReadFull(tr, magic); err != nil {
		return nil, fmt.Errorf("modelio: short magic: %w", err)
	}
	if string(magic) != Magic {
		return nil, fmt.Errorf("modelio: bad magic %q", magic)
	}
	var headLen uint32
	if err := binary.Read(tr, binary.LittleEndian, &headLen); err != nil {
		return nil, fmt.Errorf("modelio: header length: %w", err)
	}
	if headLen > 1<<24 {
		return nil, fmt.Errorf("modelio: unreasonable header length %d", headLen)
	}
	headJSON, err := io.ReadAll(io.LimitReader(tr, int64(headLen)))
	if err == nil && len(headJSON) < int(headLen) {
		err = io.ErrUnexpectedEOF
	}
	if err != nil {
		return nil, fmt.Errorf("modelio: short header: %w", err)
	}
	var h header
	if err := json.Unmarshal(headJSON, &h); err != nil {
		return nil, fmt.Errorf("modelio: header json: %w", err)
	}

	cp := &Checkpoint{Kind: h.Kind, Config: h.Config, Tensors: make(map[string]*tensor.Tensor)}
	chunk := make([]byte, 64<<10)
	for _, e := range h.Tensors {
		n := 1
		for _, d := range e.Shape {
			if d <= 0 {
				return nil, fmt.Errorf("modelio: tensor %q has invalid shape %v", e.Name, e.Shape)
			}
			if n > maxTensorValues/d {
				return nil, fmt.Errorf("modelio: tensor %q of shape %v holds over %d values", e.Name, e.Shape, maxTensorValues)
			}
			n *= d
		}
		if n != e.Count {
			return nil, fmt.Errorf("modelio: tensor %q count %d != shape product %d", e.Name, e.Count, n)
		}
		// The tensor's memory follows its bytes as they arrive, at most
		// twice what has arrived: a declared shape is only a claim.
		var data []float32
		for len(data) < n {
			k := min(n-len(data), len(chunk)/4)
			if _, err := io.ReadFull(tr, chunk[:4*k]); err != nil {
				return nil, fmt.Errorf("modelio: short tensor %q: %w", e.Name, err)
			}
			if len(data)+k > cap(data) {
				data = append(make([]float32, 0, min(n, 2*(len(data)+k))), data...)
			}
			for i := range k {
				data = append(data, math.Float32frombits(binary.LittleEndian.Uint32(chunk[4*i:])))
			}
		}
		if _, dup := cp.Tensors[e.Name]; dup {
			return nil, fmt.Errorf("modelio: duplicate tensor %q", e.Name)
		}
		cp.Tensors[e.Name] = tensor.FromSlice(data, e.Shape...)
		cp.Order = append(cp.Order, e.Name)
	}

	want := crc.Sum32()
	var got uint32
	if err := binary.Read(r, binary.LittleEndian, &got); err != nil {
		return nil, fmt.Errorf("modelio: missing checksum: %w", err)
	}
	if got != want {
		return nil, fmt.Errorf("modelio: checksum mismatch: file %08x, computed %08x", got, want)
	}
	return cp, nil
}

// SaveViT serializes a ViT model with its configuration.
func SaveViT(w io.Writer, m *models.ViTModel) error {
	return Save(w, KindViT, m.Config, m.NamedTensors())
}

// LoadViT reconstructs a ViT model from a checkpoint.
func LoadViT(cp *Checkpoint) (*models.ViTModel, error) {
	if cp.Kind != KindViT {
		return nil, fmt.Errorf("modelio: checkpoint kind %q is not a ViT", cp.Kind)
	}
	var cfg models.ViTConfig
	if err := json.Unmarshal(cp.Config, &cfg); err != nil {
		return nil, fmt.Errorf("modelio: vit config: %w", err)
	}
	m, err := models.NewViTModel(cfg, zeroRand{})
	if err != nil {
		return nil, err
	}
	if err := m.LoadTensors(cp.Tensors); err != nil {
		return nil, err
	}
	return m, nil
}

// SaveResNet serializes a ResNet model with its configuration.
func SaveResNet(w io.Writer, m *models.ResNetModel) error {
	return Save(w, KindResNet, m.Config, m.NamedTensors())
}

// LoadResNet reconstructs a ResNet model from a checkpoint.
func LoadResNet(cp *Checkpoint) (*models.ResNetModel, error) {
	if cp.Kind != KindResNet {
		return nil, fmt.Errorf("modelio: checkpoint kind %q is not a ResNet", cp.Kind)
	}
	var cfg models.ResNetConfig
	if err := json.Unmarshal(cp.Config, &cfg); err != nil {
		return nil, fmt.Errorf("modelio: resnet config: %w", err)
	}
	m, err := models.NewResNetModel(cfg, zeroRand{})
	if err != nil {
		return nil, err
	}
	if err := m.LoadTensors(cp.Tensors); err != nil {
		return nil, err
	}
	return m, nil
}

// zeroRand satisfies tensor.Rand64 for placeholder initialization that
// is immediately overwritten by LoadTensors.
type zeroRand struct{}

func (zeroRand) Float64() float64 { return 0 }

// BuildReport summarizes an engine build.
type BuildReport struct {
	Precision   string
	Tensors     int
	Values      int64
	MaxAbsError float64
}

// BuildEngine converts a checkpoint's weights to the target precision
// in place (the TensorRT-build analogue) and reports the worst-case
// weight perturbation. Supported precisions: fp32 (no-op), fp16, bf16.
func BuildEngine(cp *Checkpoint, precision string) (BuildReport, error) {
	rep := BuildReport{Precision: precision}
	for _, name := range cp.Order {
		t := cp.Tensors[name]
		rep.Tensors++
		rep.Values += int64(t.Len())
		switch precision {
		case "fp32":
			// engine keeps full precision
		case "fp16", "bf16":
			for i, v := range t.Data {
				var back float32
				if precision == "fp16" {
					back = quant.FromFloat32(v).Float32()
				} else {
					back = quant.BF16FromFloat32(v).Float32()
				}
				if d := math.Abs(float64(back - v)); d > rep.MaxAbsError {
					rep.MaxAbsError = d
				}
				t.Data[i] = back
			}
		default:
			return BuildReport{}, fmt.Errorf("modelio: unsupported engine precision %q", precision)
		}
	}
	return rep, nil
}
