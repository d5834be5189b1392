package models

import (
	"fmt"

	"harvest/internal/quant"
	"harvest/internal/tensor"
)

// Executable backend precisions. FP32 runs the packed f32 GEMM
// directly; FP16/BF16 store weights as 16-bit words dequantized
// panel-at-a-time inside the GEMM pack step; Int8 runs the exact integer
// micro-kernel (AVX2 VPMADDUBSW on amd64) over 7-bit codes — symmetric
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

// Executor is a real forward-capable model backend. It is structurally
// identical to engine.Forwarder (models cannot import engine).
type Executor interface {
	Forward(x *tensor.Tensor) (*tensor.Tensor, error)
}

// linearOp computes dst (m×out) = x (m×in)·Wᵀ + bias at some storage
// precision — added to dst's old contents when acc — and then runs epi
// over the finished rows (the op supplies epi.Bias). The float32 models
// and their precision wrappers share one forward skeleton parameterized
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

func newHalfLinear(w, bias *tensor.Tensor, bf16 bool) halfLinear {
	l := halfLinear{
		w:    encodeHalf(w.Data, bf16),
		out:  w.Shape[0],
		in:   w.Shape[1],
		bf16: bf16,
	}
	if bias != nil {
		l.bias = bias.Data
	}
	return l
}

func encodeHalf(xs []float32, bf16 bool) []uint16 {
	out := make([]uint16, len(xs))
	for i, v := range xs {
		if bf16 {
			out[i] = uint16(quant.BF16FromFloat32(v))
		} else {
			out[i] = uint16(quant.FromFloat32(v))
		}
	}
	return out
}

func (l halfLinear) apply(_ *workspace, dst, x []float32, m int, acc bool, epi tensor.Epilogue) {
	epi.Bias = l.bias
	tensor.GemmTransBF16Epilogue(dst, x, l.w, m, l.out, l.in, l.bf16, acc, epi)
}

// q7Weights holds symmetric per-output-channel 7-bit weights (out × in)
// packed for the int8 micro-kernel, with their per-channel scales.
type q7Weights struct {
	packed *tensor.PackedQ7
	scales []float32
}

func newQ7Weights(w []float32, out, in int) q7Weights {
	q := q7Weights{scales: make([]float32, out)}
	codes := make([]int8, out*in)
	for oc := range q.scales {
		row := w[oc*in : oc*in+in]
		q.scales[oc] = quant.CalibrateQ7Sym(row)
		quant.QuantizeQ7SymInto(codes[oc*in:oc*in+in], row, q.scales[oc])
	}
	q.packed = tensor.PackQ7Weights(codes, out, in)
	return q
}

// q7Linear runs the int8 pipeline: activations are quantized per row
// inside the GEMM's row bands, and bias and the caller's epilogue run
// there too, as in denseLinear.
type q7Linear struct {
	q7Weights
	bias []float32
}

func (l q7Linear) apply(_ *workspace, dst, x []float32, m int, acc bool, epi tensor.Epilogue) {
	epi.Bias = l.bias
	tensor.Q7LinearEpilogue(dst, x, m, l.packed.K, l.packed, l.scales, acc, epi)
}

// bnApply holds the BN-after-conv epilogue shared by the reduced-
// precision conv ops.
type convEpilogue struct {
	bnMean, bnVar, bnG, bnB []float32
	act                     bool
}

func (e *convEpilogue) run(y *tensor.Tensor) {
	tensor.BatchNormInference(y, e.bnMean, e.bnVar, e.bnG, e.bnB, 1e-5)
	if e.act {
		tensor.ReLU(y)
	}
}

// convGeom carries the shared geometry of the reduced-precision conv
// ops, which run im2col transposed (one receptive field per row) so the
// GEMM sees contiguous k-vectors on both sides.
type convGeom struct {
	outC, inC, k, stride, pad int
}

func (g *convGeom) outSize(x *tensor.Tensor) (oh, ow int) {
	oh = (x.Shape[2]+2*g.pad-g.k)/g.stride + 1
	ow = (x.Shape[3]+2*g.pad-g.k)/g.stride + 1
	if x.Shape[1] != g.inC {
		panic(fmt.Errorf("models: conv got %d input channels, want %d: %w", x.Shape[1], g.inC, tensor.ErrShape))
	}
	return oh, ow
}

// scatterConvOut transposes the (ohow × outC) GEMM output into the NCHW
// plane of image b.
func scatterConvOut(out *tensor.Tensor, yT []float32, b, outC, oh, ow int) {
	plane := oh * ow
	for oc := 0; oc < outC; oc++ {
		dst := out.Data[(b*outC+oc)*plane : (b*outC+oc+1)*plane]
		for p := 0; p < plane; p++ {
			dst[p] = yT[p*outC+oc]
		}
	}
}

// halfConv is a conv with float16/bfloat16 weights.
type halfConv struct {
	convGeom
	w    []uint16 // (outC × inC·k·k)
	bf16 bool
	epi  convEpilogue
}

func (c *halfConv) apply(ws *workspace, x *tensor.Tensor) *tensor.Tensor {
	n := x.Shape[0]
	oh, ow := c.outSize(x)
	ckk := c.inC * c.k * c.k
	out := tensor.New(n, c.outC, oh, ow)
	cols := tensor.Grow(&ws.cols, oh*ow*ckk)
	yT := tensor.Grow(&ws.yT, oh*ow*c.outC)
	for b := 0; b < n; b++ {
		tensor.Im2ColTransInto(cols, x, b, c.k, c.k, c.stride, c.pad, oh, ow)
		clear(yT)
		tensor.GemmTransBF16Into(yT, cols, c.w, oh*ow, c.outC, ckk, c.bf16)
		scatterConvOut(out, yT, b, c.outC, oh, ow)
	}
	c.epi.run(out)
	return out
}

// q7Conv is a conv with symmetric per-output-channel 7-bit weights
// (outC × inC·k·k), run as the int8 linear op over its im2col rows.
type q7Conv struct {
	convGeom
	q7Weights
	epi convEpilogue
}

func (c *q7Conv) apply(ws *workspace, x *tensor.Tensor) *tensor.Tensor {
	n := x.Shape[0]
	oh, ow := c.outSize(x)
	ckk := c.inC * c.k * c.k
	out := tensor.New(n, c.outC, oh, ow)
	cols := tensor.Grow(&ws.cols, oh*ow*ckk)
	yT := tensor.Grow(&ws.yT, oh*ow*c.outC)
	for b := 0; b < n; b++ {
		tensor.Im2ColTransInto(cols, x, b, c.k, c.k, c.stride, c.pad, oh, ow)
		tensor.Q7LinearEpilogue(yT, cols, oh*ow, ckk, c.packed, c.scales, false, tensor.Epilogue{})
		scatterConvOut(out, yT, b, c.outC, oh, ow)
	}
	c.epi.run(out)
	return out
}

// newLinearOp builds the linear op for one weight/bias pair at the
// requested precision.
func newLinearOp(w, b *tensor.Tensor, precision string) (linearOp, error) {
	switch precision {
	case PrecFP32:
		return denseLinear{w: w, b: b}, nil
	case PrecFP16:
		return newHalfLinear(w, b, false), nil
	case PrecBF16:
		return newHalfLinear(w, b, true), nil
	case PrecInt8:
		l := q7Linear{q7Weights: newQ7Weights(w.Data, w.Shape[0], w.Shape[1])}
		if b != nil {
			l.bias = b.Data
		}
		return l, nil
	}
	return nil, fmt.Errorf("models: unknown precision %q (want one of %v)", precision, ExecPrecisions())
}

// newConvOp builds the conv op for one resnetConv at the requested
// precision, sharing the conv's BN statistics.
func newConvOp(rc *resnetConv, precision string) (convOp, error) {
	if precision == PrecFP32 {
		return rc, nil
	}
	outC, inC, k := rc.w.Shape[0], rc.w.Shape[1], rc.w.Shape[2]
	geom := convGeom{outC: outC, inC: inC, k: k, stride: rc.stride, pad: rc.pad}
	epi := convEpilogue{bnMean: rc.bnMean, bnVar: rc.bnVar, bnG: rc.bnG, bnB: rc.bnB, act: rc.activateOn}
	switch precision {
	case PrecFP16, PrecBF16:
		return &halfConv{convGeom: geom, w: encodeHalf(rc.w.Data, precision == PrecBF16), bf16: precision == PrecBF16, epi: epi}, nil
	case PrecInt8:
		return &q7Conv{convGeom: geom, q7Weights: newQ7Weights(rc.w.Data, outC, inC*k*k), epi: epi}, nil
	}
	return nil, fmt.Errorf("models: unknown precision %q (want one of %v)", precision, ExecPrecisions())
}

// NewExecutable builds a real forward-capable backend for the named
// model at the given precision. Known names are the four Table 3 models
// plus the test-scale "ViT_Micro" and "ResNet_Mini"; weights are
// initialized from r. Precision "" defaults to fp32.
func NewExecutable(name string, numClasses int, precision string, r tensor.Rand64) (Executor, error) {
	if precision == "" {
		precision = PrecFP32
	}
	switch name {
	case NameViTTiny, NameViTSmall, NameViTBase, "ViT_Micro":
		var cfg ViTConfig
		switch name {
		case NameViTTiny:
			cfg = ViTTinyConfig(numClasses)
		case NameViTSmall:
			cfg = ViTSmallConfig(numClasses)
		case NameViTBase:
			cfg = ViTBaseConfig(numClasses)
		default:
			cfg = MicroViTConfig(numClasses)
		}
		m, err := NewViTModel(cfg, r)
		if err != nil {
			return nil, err
		}
		if precision == PrecFP32 {
			return m, nil
		}
		return NewPrecisionViT(m, precision)
	case NameResNet50, "ResNet_Mini":
		cfg := ResNet50Config(numClasses)
		if name == "ResNet_Mini" {
			cfg = MiniResNetConfig(numClasses)
		}
		m, err := NewResNetModel(cfg, r)
		if err != nil {
			return nil, err
		}
		if precision == PrecFP32 {
			return m, nil
		}
		return NewPrecisionResNet(m, precision)
	}
	return nil, fmt.Errorf("models: no executable backend for model %q", name)
}
