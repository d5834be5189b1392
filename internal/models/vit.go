package models

import (
	"fmt"

	"harvest/internal/tensor"
)

// ViTConfig parameterizes a Vision Transformer.
type ViTConfig struct {
	Name       string
	InputSize  int // square input resolution
	PatchSize  int
	Dim        int // embedding dimension
	Depth      int // encoder blocks
	Heads      int
	MLPRatio   int // hidden = MLPRatio * Dim
	NumClasses int
}

// SeqLen returns the token count including the class token.
func (c ViTConfig) SeqLen() int {
	p := c.InputSize / c.PatchSize
	return p*p + 1
}

// Validate sanity-checks the configuration.
func (c ViTConfig) Validate() error {
	if c.InputSize%c.PatchSize != 0 {
		return fmt.Errorf("models: input %d not divisible by patch %d", c.InputSize, c.PatchSize)
	}
	if c.Dim%c.Heads != 0 {
		return fmt.Errorf("models: dim %d not divisible by heads %d", c.Dim, c.Heads)
	}
	if c.Depth <= 0 || c.MLPRatio <= 0 || c.NumClasses <= 0 {
		return fmt.Errorf("models: non-positive ViT dimension in %+v", c)
	}
	return nil
}

// BuildViT constructs the layer-wise IR of a ViT per the config.
func BuildViT(c ViTConfig) (*Spec, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	n := int64(c.SeqLen())
	nPatch := n - 1
	d := int64(c.Dim)
	hidden := int64(c.MLPRatio) * d
	patchIn := int64(3 * c.PatchSize * c.PatchSize)

	spec := &Spec{Name: c.Name, Arch: ArchTransformer, InputSize: c.InputSize, NumClasses: c.NumClasses}
	add := func(l Layer) { spec.Layers = append(spec.Layers, l) }

	// Patch embedding: a conv with kernel=stride=patch, i.e. a linear
	// projection of each patch.
	add(Layer{Name: "patch_embed", Kind: KindEmbed,
		MACs:     nPatch * d * patchIn,
		Params:   d*patchIn + d,
		OutElems: n * d,
	})
	// Learned position embedding + class token (no MACs).
	add(Layer{Name: "pos_embed", Kind: KindEmbed, Params: n*d + d, OutElems: n * d})

	for b := 0; b < c.Depth; b++ {
		pfx := fmt.Sprintf("block%d.", b)
		add(Layer{Name: pfx + "norm1", Kind: KindNorm, Params: 2 * d, OutElems: n * d})
		add(Layer{Name: pfx + "attn.qkv", Kind: KindLinear,
			MACs: n * d * 3 * d, Params: 3*d*d + 3*d, OutElems: n * 3 * d})
		// QK^T and AV: 2 * n^2 * d MACs total across heads.
		add(Layer{Name: pfx + "attn.matmul", Kind: KindAttnMatmul,
			MACs: 2 * n * n * d, OutElems: n * n * int64(c.Heads)})
		add(Layer{Name: pfx + "attn.proj", Kind: KindLinear,
			MACs: n * d * d, Params: d*d + d, OutElems: n * d})
		add(Layer{Name: pfx + "norm2", Kind: KindNorm, Params: 2 * d, OutElems: n * d})
		add(Layer{Name: pfx + "mlp.fc1", Kind: KindLinear,
			MACs: n * d * hidden, Params: d*hidden + hidden, OutElems: n * hidden})
		add(Layer{Name: pfx + "mlp.act", Kind: KindAct, OutElems: n * hidden})
		add(Layer{Name: pfx + "mlp.fc2", Kind: KindLinear,
			MACs: n * hidden * d, Params: hidden*d + d, OutElems: n * d})
	}
	add(Layer{Name: "norm", Kind: KindNorm, Params: 2 * d, OutElems: n * d})
	add(Layer{Name: "head", Kind: KindLinear,
		MACs: d * int64(c.NumClasses), Params: d*int64(c.NumClasses) + int64(c.NumClasses),
		OutElems: int64(c.NumClasses)})
	return spec, nil
}

// ViTWeights holds the real float32 parameters of one encoder block.
type vitBlock struct {
	norm1G, norm1B *tensor.Tensor
	qkvW, qkvB     *tensor.Tensor // (3d x d), (3d)
	projW, projB   *tensor.Tensor // (d x d), (d)
	norm2G, norm2B *tensor.Tensor
	fc1W, fc1B     *tensor.Tensor // (hidden x d), (hidden)
	fc2W, fc2B     *tensor.Tensor // (d x hidden), (d)
}

// ViTModel is an executable ViT with real weights.
type ViTModel struct {
	Config ViTConfig
	// patchW is (d x 3*p*p); patchB is (d).
	patchW, patchB *tensor.Tensor
	posEmbed       *tensor.Tensor // (n x d)
	clsToken       *tensor.Tensor // (1 x d)
	blocks         []vitBlock
	normG, normB   *tensor.Tensor
	headW, headB   *tensor.Tensor // (classes x d)

	exec   *vitExec                    // the op table Forward routes through
	spares tensor.FreeList[*workspace] // forward workspaces
}

// vitExec is the set of linear ops one forward pass routes through; a
// model and its reduced-precision copies share the forward skeleton
// and differ only in this table. Norms, attention matmuls, residuals
// and activations always run in float32.
type vitExec struct {
	patch, head linearOp
	blocks      []vitBlockExec
}

type vitBlockExec struct {
	qkv, proj, fc1, fc2 linearOp
}

// newExec builds the op table over the model's weights at a precision
// checkPrecision has passed.
func (m *ViTModel) newExec(precision string) *vitExec {
	e := &vitExec{
		patch: newLinearOp(m.patchW, m.patchB, precision),
		head:  newLinearOp(m.headW, m.headB, precision),
	}
	for i := range m.blocks {
		blk := &m.blocks[i]
		e.blocks = append(e.blocks, vitBlockExec{
			qkv:  newLinearOp(blk.qkvW, blk.qkvB, precision),
			proj: newLinearOp(blk.projW, blk.projB, precision),
			fc1:  newLinearOp(blk.fc1W, blk.fc1B, precision),
			fc2:  newLinearOp(blk.fc2W, blk.fc2B, precision),
		})
	}
	return e
}

// At returns the model at a precision: the model itself for "" or
// fp32; otherwise a copy for forwarding that shares the model's norms
// and embeddings and holds only its converted linear weights, so it
// does not keep the float32 weights alive. The model is left untouched.
func (m *ViTModel) At(precision string) (Executor, error) {
	switch reduced, err := checkPrecision(precision); {
	case err != nil:
		return nil, err
	case !reduced:
		return m, nil
	}
	c := &ViTModel{Config: m.Config, posEmbed: m.posEmbed, clsToken: m.clsToken,
		normG: m.normG, normB: m.normB, exec: m.newExec(precision), spares: newSpares()}
	for _, blk := range m.blocks {
		c.blocks = append(c.blocks, vitBlock{norm1G: blk.norm1G, norm1B: blk.norm1B,
			norm2G: blk.norm2G, norm2B: blk.norm2B})
	}
	return c, nil
}

// NewViTModel allocates a ViT with weights initialized from r.
func NewViTModel(c ViTConfig, r tensor.Rand64) (*ViTModel, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	d := c.Dim
	hidden := c.MLPRatio * d
	n := c.SeqLen()
	pin := 3 * c.PatchSize * c.PatchSize
	scale := 0.05

	mk := func(shape ...int) *tensor.Tensor {
		t := tensor.New(shape...)
		t.RandInit(r, scale)
		return t
	}
	ones := func(sz int) *tensor.Tensor {
		t := tensor.New(sz)
		t.Fill(1)
		return t
	}
	m := &ViTModel{
		Config:   c,
		patchW:   mk(d, pin),
		patchB:   mk(d),
		posEmbed: mk(n, d),
		clsToken: mk(1, d),
		normG:    ones(d),
		normB:    tensor.New(d),
		headW:    mk(c.NumClasses, d),
		headB:    mk(c.NumClasses),
		spares:   newSpares(),
	}
	for i := 0; i < c.Depth; i++ {
		m.blocks = append(m.blocks, vitBlock{
			norm1G: ones(d), norm1B: tensor.New(d),
			qkvW: mk(3*d, d), qkvB: mk(3 * d),
			projW: mk(d, d), projB: mk(d),
			norm2G: ones(d), norm2B: tensor.New(d),
			fc1W: mk(hidden, d), fc1B: mk(hidden),
			fc2W: mk(d, hidden), fc2B: mk(d),
		})
	}
	m.exec = m.newExec(PrecFP32)
	return m, nil
}

// Forward runs a real forward pass over a batch of CHW images
// (batch x 3 x S x S) and returns logits (batch x classes), the whole
// batch at once: the tokens of all B images are one (B·n × d)
// activation, so each linear layer is one GEMM per batch.
// fc1 applies bias+GELU in its epilogue, proj and fc2 accumulate into the
// residual stream and write its layer norm for the next linear (proj the
// block's norm2, fc2 the next block's norm1) in theirs, and attention
// runs its (image, head) pairs as parallel tasks reading Q, K and V out
// of the qkv activation in place. Only block 0's norm1 and the class
// tokens' norm run on their own.
// Every row is computed the same way whatever B is, so a batch's logits
// equal its images' single forwards bit for bit.
func (m *ViTModel) Forward(x *tensor.Tensor) (*tensor.Tensor, error) {
	c, e := m.Config, m.exec
	if len(x.Shape) != 4 || x.Shape[1] != 3 || x.Shape[2] != c.InputSize || x.Shape[3] != c.InputSize {
		return nil, fmt.Errorf("models: ViT %s expects (B,3,%d,%d), got %v: %w", c.Name, c.InputSize, c.InputSize, x.Shape, tensor.ErrShape)
	}
	batch, d, p, s := x.Shape[0], c.Dim, c.PatchSize, c.InputSize
	grid := s / p
	nPatch, pin := grid*grid, 3*p*p
	n := nPatch + 1
	rows := batch * n
	ws := getWorkspace(&m.spares)
	defer m.spares.Put(ws)

	// Patches of every image into (B·nPatch × pin), embedded, then laid
	// out as each image's class token and patch tokens plus position.
	patches := tensor.Grow(&ws.patches, batch*nPatch*pin)
	for b := 0; b < batch; b++ {
		for py := 0; py < grid; py++ {
			for px := 0; px < grid; px++ {
				row := patches[((b*grid+py)*grid+px)*pin:][:pin]
				i := 0
				for ch := 0; ch < 3; ch++ {
					for dy := 0; dy < p; dy++ {
						i += copy(row[i:i+p], x.Data[((b*3+ch)*s+py*p+dy)*s+px*p:])
					}
				}
			}
		}
	}
	embedded := tensor.Grow(&ws.embedded, batch*nPatch*d)
	e.patch.apply(ws, embedded, patches, batch*nPatch, false, tensor.Epilogue{})
	tokens := tensor.Grow(&ws.tokens, rows*d)
	for b := 0; b < batch; b++ {
		img := tokens[b*n*d : (b+1)*n*d]
		copy(img, m.clsToken.Data)
		copy(img[d:], embedded[b*nPatch*d:(b+1)*nPatch*d])
		for i, v := range m.posEmbed.Data {
			img[i] += v
		}
	}

	normed := tensor.Grow(&ws.normed, rows*d)
	qkv := tensor.Grow(&ws.qkv, rows*3*d)
	attn := tensor.Grow(&ws.attn, rows*d)
	hidden := tensor.Grow(&ws.hidden, rows*c.MLPRatio*d)
	norm := func(g, b *tensor.Tensor) tensor.Norm {
		return tensor.Norm{Dst: normed, Gamma: g.Data, Beta: b.Data, Eps: 1e-6}
	}
	blk0 := &m.blocks[0]
	tensor.LayerNormRows(normed, tokens, rows, d, blk0.norm1G.Data, blk0.norm1B.Data, 1e-6)
	for bi := range m.blocks {
		blk, ops := &m.blocks[bi], &e.blocks[bi]
		ops.qkv.apply(ws, qkv, normed, rows, false, tensor.Epilogue{})
		tensor.MultiHeadAttention(attn, qkv, batch, n, c.Heads, d/c.Heads)
		ops.proj.apply(ws, tokens, attn, rows, true, tensor.Epilogue{Norm: norm(blk.norm2G, blk.norm2B)})
		ops.fc1.apply(ws, hidden, normed, rows, false, tensor.Epilogue{GELU: true})
		var next tensor.Epilogue
		if bi+1 < len(m.blocks) {
			next.Norm = norm(m.blocks[bi+1].norm1G, m.blocks[bi+1].norm1B)
		}
		ops.fc2.apply(ws, tokens, hidden, rows, true, next)
	}

	// The head reads only the class tokens, so only they are normed.
	cls := tensor.Grow(&ws.cls, batch*d)
	for b := 0; b < batch; b++ {
		copy(cls[b*d:(b+1)*d], tokens[b*n*d:])
	}
	tensor.LayerNormRows(cls, cls, batch, d, m.normG.Data, m.normB.Data, 1e-6)
	out := tensor.New(batch, c.NumClasses)
	e.head.apply(ws, out.Data, cls, batch, false, tensor.Epilogue{})
	return out, nil
}
