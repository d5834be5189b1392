package models

import (
	"fmt"

	"harvest/internal/quant"
	"harvest/internal/tensor"
)

// Executable backend precisions. FP32 runs the packed f32 GEMM
// directly; FP16/BF16 store weights as 16-bit words dequantized
// panel-at-a-time inside the GEMM pack step; Int8 runs the exact integer
// micro-kernel (AMX, VNNI or AVX2 tiles on amd64) over 7-bit codes — symmetric
// per-output-channel weights, asymmetric per-row activations quantized
// inside the GEMM's row bands — accumulating in int32.
const (
	PrecFP32 = "fp32"
	PrecFP16 = "fp16"
	PrecBF16 = "bf16"
	PrecInt8 = "int8"
)

// ExecPrecisions lists the precisions NewExecutable accepts.
func ExecPrecisions() []string {
	return []string{PrecFP32, PrecFP16, PrecBF16, PrecInt8}
}

// Executor is a real forward-capable model backend; engine.Forwarder
// is this interface. Forward's result belongs to the caller: an
// implementation allocates it fresh on every call and keeps no
// reference to it, so engine.InferTensors hands its rows out as they
// are.
type Executor interface {
	Forward(x *tensor.Tensor) (*tensor.Tensor, error)
}

// checkPrecision reports whether precision is a reduced one (fp16,
// bf16, int8) rather than fp32, which "" also names, and refuses any
// other.
func checkPrecision(precision string) (reduced bool, err error) {
	switch precision {
	case "", PrecFP32:
		return false, nil
	case PrecFP16, PrecBF16, PrecInt8:
		return true, nil
	}
	return false, fmt.Errorf("models: unknown precision %q (want one of %v)", precision, ExecPrecisions())
}

// linearOp computes dst (m×out) = x (m×in)·Wᵀ + bias at some storage
// precision — added to dst's old contents when acc — and then runs epi
// over the finished rows (the op supplies epi.Bias). A model and its
// reduced-precision copies share one forward skeleton parameterized
// over these ops.
type linearOp interface {
	apply(ws *workspace, dst, x []float32, m int, acc bool, epi tensor.Epilogue)
}

// convOp applies a conv (+ folded BN + optional ReLU) at some storage
// precision.
type convOp interface {
	apply(ws *workspace, x *tensor.Tensor) *tensor.Tensor
}

// workspace is one forward pass's working memory: the ViT activations
// and the reduced-precision convs' im2col rows and output. A forward
// takes one from its model's free list and puts it back, so each buffer
// is sized by the first forward at a (model, batch) and reused by every
// later one; no two forwards hold the same workspace at once.
type workspace struct {
	patches, embedded, tokens, normed, qkv, attn, hidden, cls []float32
	cols, yT                                                  []float32
}

// newSpares returns a model's workspace free list. Its cap bounds the
// memory a model keeps between forwards by the concurrent forwards it
// has served (executor instances share one model), not by history.
func newSpares() tensor.FreeList[*workspace] { return tensor.FreeList[*workspace]{Max: 4} }

func getWorkspace(l *tensor.FreeList[*workspace]) *workspace {
	if ws, ok := l.Get(); ok {
		return ws
	}
	return new(workspace)
}

// denseLinear is the float32 op over the packed GEMM: bias and the
// caller's epilogue run inside its row bands.
type denseLinear struct{ w, b *tensor.Tensor }

func (l denseLinear) apply(_ *workspace, dst, x []float32, m int, acc bool, epi tensor.Epilogue) {
	if l.b != nil {
		epi.Bias = l.b.Data
	}
	tensor.GemmTransBEpilogue(dst, x, l.w.Data, m, l.w.Shape[0], l.w.Shape[1], acc, epi)
}

// halfLinear stores weights as float16/bfloat16 words.
type halfLinear struct {
	w       []uint16 // (out × in)
	bias    []float32
	out, in int
	bf16    bool
}

func (l halfLinear) apply(_ *workspace, dst, x []float32, m int, acc bool, epi tensor.Epilogue) {
	epi.Bias = l.bias
	tensor.GemmTransBF16Epilogue(dst, x, l.w, m, l.out, l.in, l.bf16, acc, epi)
}

// q7Linear holds symmetric per-output-channel 7-bit weights (out × in)
// packed for the int8 micro-kernel, with their per-channel scales, and
// runs the int8 pipeline: activations are quantized per row inside the
// GEMM's row bands, and bias and the caller's epilogue run there too,
// as in denseLinear.
type q7Linear struct {
	packed       *tensor.PackedQ7
	scales, bias []float32
}

func (l q7Linear) apply(_ *workspace, dst, x []float32, m int, acc bool, epi tensor.Epilogue) {
	epi.Bias = l.bias
	tensor.Q7LinearEpilogue(dst, x, m, l.packed.K, l.packed, l.scales, acc, epi)
}

// conv is a conv (+ BN + optional ReLU) whose weights (outC ×
// inC·k·k) sit in a reduced-precision linear op, run over im2col rows
// transposed (one receptive field per row) so the GEMM sees contiguous
// k-vectors on both sides.
type conv struct {
	lin          linearOp
	outC, inC, k int
	convBN
}

func (c *conv) apply(ws *workspace, x *tensor.Tensor) *tensor.Tensor {
	if x.Shape[1] != c.inC {
		panic(fmt.Errorf("models: conv got %d input channels, want %d: %w", x.Shape[1], c.inC, tensor.ErrShape))
	}
	n := x.Shape[0]
	oh := (x.Shape[2]+2*c.pad-c.k)/c.stride + 1
	ow := (x.Shape[3]+2*c.pad-c.k)/c.stride + 1
	plane, ckk := oh*ow, c.inC*c.k*c.k
	out := tensor.New(n, c.outC, oh, ow)
	cols := tensor.Grow(&ws.cols, plane*ckk)
	yT := tensor.Grow(&ws.yT, plane*c.outC)
	for b := 0; b < n; b++ {
		tensor.Im2ColTransInto(cols, x, b, c.k, c.k, c.stride, c.pad, oh, ow)
		c.lin.apply(ws, yT, cols, plane, false, tensor.Epilogue{})
		// Transpose the (plane × outC) product into image b's NCHW planes.
		for oc := 0; oc < c.outC; oc++ {
			dst := out.Data[(b*c.outC+oc)*plane : (b*c.outC+oc+1)*plane]
			for p := range dst {
				dst[p] = yT[p*c.outC+oc]
			}
		}
	}
	return c.finish(out)
}

// newLinearOp builds the linear op for one weight/bias pair at a
// precision checkPrecision has passed. The float32 op holds the tensors
// themselves (LoadTensors copies into them), so weights loaded in place
// are always current; the others hold converted copies.
func newLinearOp(w, b *tensor.Tensor, precision string) linearOp {
	if precision == PrecFP32 {
		return denseLinear{w: w, b: b}
	}
	var bias []float32
	if b != nil {
		bias = b.Data
	}
	out, in := w.Shape[0], w.Shape[1]
	if precision == PrecInt8 {
		l := q7Linear{scales: make([]float32, out), bias: bias}
		codes := make([]int8, out*in)
		for oc := range l.scales {
			row := w.Data[oc*in : oc*in+in]
			l.scales[oc] = quant.CalibrateQ7Sym(row)
			quant.QuantizeQ7SymInto(codes[oc*in:oc*in+in], row, l.scales[oc])
		}
		l.packed = tensor.PackQ7Weights(codes, out, in)
		return l
	}
	l := halfLinear{w: make([]uint16, len(w.Data)), bias: bias, out: out, in: in, bf16: precision == PrecBF16}
	for i, v := range w.Data {
		if l.bf16 {
			l.w[i] = uint16(quant.BF16FromFloat32(v))
		} else {
			l.w[i] = uint16(quant.FromFloat32(v))
		}
	}
	return l
}

// newConvOp builds the conv op for one resnetConv at a precision
// checkPrecision has passed: the conv itself at fp32, otherwise a conv
// over its converted weights that shares its BN statistics.
func newConvOp(rc *resnetConv, precision string) convOp {
	if precision == PrecFP32 {
		return rc
	}
	outC, inC, k := rc.w.Shape[0], rc.w.Shape[1], rc.w.Shape[2]
	return &conv{lin: newLinearOp(rc.w.Reshape(outC, inC*k*k), nil, precision),
		outC: outC, inC: inC, k: k, convBN: rc.convBN}
}

// NewExecutable builds a real forward-capable backend for the named
// model at the given precision: the float32 model with weights
// initialized from r, then At(precision). Known names are the four
// Table 3 models plus the test-scale "ViT_Micro" and "ResNet_Mini".
func NewExecutable(name string, numClasses int, precision string, r tensor.Rand64) (Executor, error) {
	switch name {
	case NameViTTiny, NameViTSmall, NameViTBase, "ViT_Micro":
		cfg := MicroViTConfig(numClasses)
		switch name {
		case NameViTTiny:
			cfg = ViTTinyConfig(numClasses)
		case NameViTSmall:
			cfg = ViTSmallConfig(numClasses)
		case NameViTBase:
			cfg = ViTBaseConfig(numClasses)
		}
		m, err := NewViTModel(cfg, r)
		if err != nil {
			return nil, err
		}
		return m.At(precision)
	case NameResNet50, "ResNet_Mini":
		cfg := ResNet50Config(numClasses)
		if name == "ResNet_Mini" {
			cfg = MiniResNetConfig(numClasses)
		}
		m, err := NewResNetModel(cfg, r)
		if err != nil {
			return nil, err
		}
		return m.At(precision)
	}
	return nil, fmt.Errorf("models: no executable backend for model %q", name)
}
