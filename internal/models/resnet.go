package models

import (
	"fmt"

	"harvest/internal/tensor"
)

// ResNetConfig parameterizes a bottleneck ResNet (ResNet-50 style).
type ResNetConfig struct {
	Name       string
	InputSize  int
	NumClasses int
	// StageBlocks is the number of bottleneck blocks per stage
	// ({3,4,6,3} for ResNet50).
	StageBlocks []int
	// BaseWidth is the mid-channel width of stage 0 (64 for ResNet50).
	BaseWidth int
	// StemWidth is the stem conv output channels (64).
	StemWidth int
}

// ResNet50Config returns the canonical ResNet-50 configuration of
// Table 3 (4.09 GFLOPs/image, 25.56M params at 1000 classes).
func ResNet50Config(numClasses int) ResNetConfig {
	return ResNetConfig{
		Name:        "ResNet50",
		InputSize:   224,
		NumClasses:  numClasses,
		StageBlocks: []int{3, 4, 6, 3},
		BaseWidth:   64,
		StemWidth:   64,
	}
}

// Validate sanity-checks the configuration.
func (c ResNetConfig) Validate() error {
	if len(c.StageBlocks) == 0 {
		return fmt.Errorf("models: resnet %s has no stages", c.Name)
	}
	if c.InputSize < 32 || c.BaseWidth <= 0 || c.StemWidth <= 0 || c.NumClasses <= 0 {
		return fmt.Errorf("models: invalid resnet config %+v", c)
	}
	return nil
}

func convMACs(outH, outW, outC, inC, k int) int64 {
	return int64(outH) * int64(outW) * int64(outC) * int64(inC) * int64(k) * int64(k)
}

// BuildResNet constructs the layer-wise IR of a bottleneck ResNet.
func BuildResNet(c ResNetConfig) (*Spec, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	spec := &Spec{Name: c.Name, Arch: ArchCNN, InputSize: c.InputSize, NumClasses: c.NumClasses}
	add := func(l Layer) { spec.Layers = append(spec.Layers, l) }

	// Stem: 7x7/2 conv + BN + ReLU + 3x3/2 maxpool.
	s := c.InputSize / 2
	add(Layer{Name: "conv1", Kind: KindConv,
		MACs:     convMACs(s, s, c.StemWidth, 3, 7),
		Params:   int64(c.StemWidth) * 3 * 49,
		OutElems: int64(c.StemWidth) * int64(s) * int64(s)})
	add(Layer{Name: "bn1", Kind: KindNorm, Params: int64(2 * c.StemWidth),
		OutElems: int64(c.StemWidth) * int64(s) * int64(s)})
	s /= 2
	add(Layer{Name: "maxpool", Kind: KindPool,
		OutElems: int64(c.StemWidth) * int64(s) * int64(s)})

	inC := c.StemWidth
	for stage, nBlocks := range c.StageBlocks {
		mid := c.BaseWidth << stage
		outC := mid * 4
		for blk := 0; blk < nBlocks; blk++ {
			stride := 1
			if blk == 0 && stage > 0 {
				stride = 2
			}
			outS := s / stride
			pfx := fmt.Sprintf("layer%d.%d.", stage+1, blk)
			// 1x1 reduce (applies the stride in the torchvision v1.5
			// convention's 3x3; we keep stride on the 3x3).
			add(Layer{Name: pfx + "conv1", Kind: KindConv,
				MACs:     convMACs(s, s, mid, inC, 1),
				Params:   int64(mid) * int64(inC),
				OutElems: int64(mid) * int64(s) * int64(s)})
			add(Layer{Name: pfx + "bn1", Kind: KindNorm, Params: int64(2 * mid),
				OutElems: int64(mid) * int64(s) * int64(s)})
			// 3x3 spatial (carries stride).
			add(Layer{Name: pfx + "conv2", Kind: KindConv,
				MACs:     convMACs(outS, outS, mid, mid, 3),
				Params:   int64(mid) * int64(mid) * 9,
				OutElems: int64(mid) * int64(outS) * int64(outS)})
			add(Layer{Name: pfx + "bn2", Kind: KindNorm, Params: int64(2 * mid),
				OutElems: int64(mid) * int64(outS) * int64(outS)})
			// 1x1 expand.
			add(Layer{Name: pfx + "conv3", Kind: KindConv,
				MACs:     convMACs(outS, outS, outC, mid, 1),
				Params:   int64(outC) * int64(mid),
				OutElems: int64(outC) * int64(outS) * int64(outS)})
			add(Layer{Name: pfx + "bn3", Kind: KindNorm, Params: int64(2 * outC),
				OutElems: int64(outC) * int64(outS) * int64(outS)})
			if blk == 0 {
				// Projection shortcut.
				add(Layer{Name: pfx + "downsample", Kind: KindConv,
					MACs:     convMACs(outS, outS, outC, inC, 1),
					Params:   int64(outC) * int64(inC),
					OutElems: int64(outC) * int64(outS) * int64(outS)})
				add(Layer{Name: pfx + "downsample.bn", Kind: KindNorm, Params: int64(2 * outC),
					OutElems: int64(outC) * int64(outS) * int64(outS)})
			}
			inC = outC
			s = outS
		}
	}
	add(Layer{Name: "avgpool", Kind: KindPool, OutElems: int64(inC)})
	add(Layer{Name: "fc", Kind: KindLinear,
		MACs:     int64(inC) * int64(c.NumClasses),
		Params:   int64(inC)*int64(c.NumClasses) + int64(c.NumClasses),
		OutElems: int64(c.NumClasses)})
	return spec, nil
}

// convBN is a conv's stride and padding and the BN (+ optional ReLU)
// that follows it, shared by the float32 conv and its reduced-precision
// copies.
type convBN struct {
	stride, pad             int
	bnMean, bnVar, bnG, bnB []float32
	activateOn              bool // apply ReLU after BN
}

func (c *convBN) finish(y *tensor.Tensor) *tensor.Tensor {
	tensor.BatchNormInference(y, c.bnMean, c.bnVar, c.bnG, c.bnB, 1e-5)
	if c.activateOn {
		tensor.ReLU(y)
	}
	return y
}

// resnetConv bundles a conv's real weights with its BN statistics.
type resnetConv struct {
	w *tensor.Tensor
	convBN
}

func (rc *resnetConv) apply(_ *workspace, x *tensor.Tensor) *tensor.Tensor {
	return rc.finish(tensor.Conv2D(x, rc.w, nil, rc.stride, rc.pad))
}

type resnetBlock struct {
	conv1, conv2, conv3 *resnetConv
	down                *resnetConv // nil when identity shortcut
}

// ResNetModel is an executable bottleneck ResNet with real weights.
type ResNetModel struct {
	Config   ResNetConfig
	stem     *resnetConv
	blocks   []*resnetBlock
	fcW, fcB *tensor.Tensor

	exec   *resnetExec                 // the op table Forward routes through
	spares tensor.FreeList[*workspace] // forward workspaces
}

// NewResNetModel allocates a ResNet with random weights and benign BN
// statistics (mean 0, var 1).
func NewResNetModel(c ResNetConfig, r tensor.Rand64) (*ResNetModel, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	mkConv := func(outC, inC, k, stride, pad int, act bool) *resnetConv {
		w := tensor.New(outC, inC, k, k)
		w.RandInit(r, 0.08)
		mean := make([]float32, outC)
		variance := make([]float32, outC)
		g := make([]float32, outC)
		bta := make([]float32, outC)
		for i := range variance {
			variance[i] = 1
			g[i] = 1
		}
		return &resnetConv{w: w, convBN: convBN{stride: stride, pad: pad,
			bnMean: mean, bnVar: variance, bnG: g, bnB: bta, activateOn: act}}
	}
	m := &ResNetModel{Config: c, spares: newSpares()}
	m.stem = mkConv(c.StemWidth, 3, 7, 2, 3, true)
	inC := c.StemWidth
	for stage, nBlocks := range c.StageBlocks {
		mid := c.BaseWidth << stage
		outC := mid * 4
		for blk := 0; blk < nBlocks; blk++ {
			stride := 1
			if blk == 0 && stage > 0 {
				stride = 2
			}
			rb := &resnetBlock{
				conv1: mkConv(mid, inC, 1, 1, 0, true),
				conv2: mkConv(mid, mid, 3, stride, 1, true),
				conv3: mkConv(outC, mid, 1, 1, 0, false),
			}
			if blk == 0 {
				rb.down = mkConv(outC, inC, 1, stride, 0, false)
			}
			m.blocks = append(m.blocks, rb)
			inC = outC
		}
	}
	m.fcW = tensor.New(c.NumClasses, inC)
	m.fcW.RandInit(r, 0.08)
	m.fcB = tensor.New(c.NumClasses)
	m.exec = m.newExec(PrecFP32)
	return m, nil
}

// resnetExec is the op table one ResNet forward pass routes through;
// a model and its reduced-precision copies share the skeleton and
// differ only here. Pooling, residual adds and ReLU always run in
// float32.
type resnetExec struct {
	stem   convOp
	blocks []resnetBlockExec
	fc     linearOp
}

type resnetBlockExec struct {
	conv1, conv2, conv3 convOp
	down                convOp // nil when identity shortcut
}

// newExec builds the op table over the model's weights at a precision
// checkPrecision has passed.
func (m *ResNetModel) newExec(precision string) *resnetExec {
	e := &resnetExec{stem: newConvOp(m.stem, precision), fc: newLinearOp(m.fcW, m.fcB, precision)}
	for _, blk := range m.blocks {
		be := resnetBlockExec{
			conv1: newConvOp(blk.conv1, precision),
			conv2: newConvOp(blk.conv2, precision),
			conv3: newConvOp(blk.conv3, precision),
		}
		if blk.down != nil {
			be.down = newConvOp(blk.down, precision)
		}
		e.blocks = append(e.blocks, be)
	}
	return e
}

// At returns the model at a precision: the model itself for "" or
// fp32; otherwise a copy for forwarding that holds only the converted
// conv and linear weights, sharing the model's BN statistics, so it
// does not keep the float32 weights alive. BN and the residual
// arithmetic stay float32. The model is left untouched.
func (m *ResNetModel) At(precision string) (Executor, error) {
	switch reduced, err := checkPrecision(precision); {
	case err != nil:
		return nil, err
	case !reduced:
		return m, nil
	}
	return &ResNetModel{Config: m.Config, exec: m.newExec(precision), spares: newSpares()}, nil
}

// Forward runs a real forward pass over (B,3,S,S) and returns logits
// (B x classes).
func (m *ResNetModel) Forward(x *tensor.Tensor) (*tensor.Tensor, error) {
	c, e := m.Config, m.exec
	if len(x.Shape) != 4 || x.Shape[1] != 3 || x.Shape[2] != c.InputSize || x.Shape[3] != c.InputSize {
		return nil, fmt.Errorf("models: ResNet %s expects (B,3,%d,%d), got %v: %w", c.Name, c.InputSize, c.InputSize, x.Shape, tensor.ErrShape)
	}
	ws := getWorkspace(&m.spares)
	defer m.spares.Put(ws)
	h := e.stem.apply(ws, x)
	h = tensor.MaxPool2D(h, 3, 2, 1)
	for _, blk := range e.blocks {
		identity := h
		out := blk.conv1.apply(ws, h)
		out = blk.conv2.apply(ws, out)
		out = blk.conv3.apply(ws, out)
		if blk.down != nil {
			identity = blk.down.apply(ws, h)
		}
		tensor.AddInPlace(out, identity)
		tensor.ReLU(out)
		h = out
	}
	pooled := tensor.GlobalAvgPool2D(h) // (B x width)
	logits := tensor.New(pooled.Shape[0], c.NumClasses)
	e.fc.apply(ws, logits.Data, pooled.Data, pooled.Shape[0], false, tensor.Epilogue{})
	return logits, nil
}
