package tensor

import (
	"math"
	"unsafe"

	"harvest/internal/quant"
)

// AddInPlace computes a += b elementwise.
func AddInPlace(a, b *Tensor) {
	if len(a.Data) != len(b.Data) {
		panic("tensor: AddInPlace size mismatch")
	}
	for i := range a.Data {
		a.Data[i] += b.Data[i]
	}
}

// ReLU applies max(0, x) in place.
func ReLU(t *Tensor) {
	for i, v := range t.Data {
		if v < 0 {
			t.Data[i] = 0
		}
	}
}

// Epilogue is the work a GEMM does on each output row once the row is
// final, inside the parallel row bands that computed it: add Bias, then
// apply GELU, then — when SoftmaxScale is non-zero — replace the row by
// softmax(row·SoftmaxScale), then — when Norm.Dst is set — write the
// row's layer norm into Norm.Dst. The zero value does nothing.
type Epilogue struct {
	Bias         []float32
	GELU         bool
	SoftmaxScale float32
	Norm         Norm
}

// Norm is an epilogue's LayerNorm step: row i of the m×n product, with
// the epilogue's other steps applied, normalized into Dst[i·n:(i+1)·n]
// with the affine Gamma and Beta, as LayerNormRows does. Dst may be the
// product itself when its rows are n apart; otherwise it must not
// overlap the product or its A.
type Norm struct {
	Dst, Gamma, Beta []float32
	Eps              float32
}

// Apply runs the epilogue over every row of the m×n row-major c, for
// products computed outside the packed GEMM.
func (e Epilogue) Apply(c []float32, m, n int) {
	if e.Norm.Dst != nil {
		e.Norm.check(c, m, n, n)
	}
	e.rows(c, n, 0, m, n)
}

func (e Epilogue) rows(c []float32, ldc, lo, hi, n int) {
	if e.Bias != nil || e.GELU {
		for i := lo; i < hi; i++ {
			row := c[i*ldc : i*ldc+n]
			if e.Bias != nil {
				vec.bias(row, e.Bias[:n])
			}
			if e.GELU {
				vec.gelu(row)
			}
		}
	}
	if e.SoftmaxScale != 0 {
		vec.softmax(c[lo*ldc:], ldc, hi-lo, n, e.SoftmaxScale)
	}
	if nm := e.Norm; nm.Dst != nil {
		vec.norm(nm.Dst[lo*n:], c[lo*ldc:], hi-lo, n, ldc, nm.Gamma, nm.Beta, nm.Eps)
	}
}

// check panics with ErrShape unless the norm of m rows of n values, ld
// apart in src, fits its operands: Dst holds m·n values and is src
// itself (at ld n) or apart from it, γ and β hold n. The assembly
// bodies read and write without bounds checks.
func (nm Norm) check(src []float32, m, n, ld int) {
	if m <= 0 || n <= 0 {
		return
	}
	span := (m-1)*ld + n
	var bad string
	switch {
	case len(src) < span || len(nm.Dst) < m*n:
		bad = "the source or destination is short"
	case len(nm.Gamma) < n || len(nm.Beta) < n:
		bad = "γ or β is short"
	case overlaps(nm.Dst[:m*n], src[:span]) && (&nm.Dst[0] != &src[0] || ld != n):
		bad = "the destination overlaps the source"
	default:
		return
	}
	panic(shapeErrf("layer norm of %d rows of %d (source row stride %d): %s", m, n, ld, bad))
}

// overlaps reports whether a and b share an element.
func overlaps(a, b []float32) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	pa, pb := uintptr(unsafe.Pointer(&a[0])), uintptr(unsafe.Pointer(&b[0]))
	return pa < pb+uintptr(len(b))*4 && pb < pa+uintptr(len(a))*4
}

// vecBodies are the forward's per-element and per-row passes: the
// epilogue's steps over rows ldc apart, the int8 linear's per-row
// quantization, and the transposes that pack a row-major B's strips.
// vec holds the set picked once at init, as micro is picked: vecGo, the
// Go bodies, is the reference and the portable path; on amd64 with
// AVX2, vec_amd64.s has 8-lane bodies, and 16-lane ones where the GEMMs
// have their AVX-512 pair tiles, that give the same bits (DESIGN.md,
// "Per-element passes on the vector unit", has the rules that keep them
// equal).
type vecBodies struct {
	bias      func(row, bias []float32)
	gelu      func(row []float32)
	softmax   func(c []float32, ldc, m, n int, scale float32)
	norm      func(dst, src []float32, m, n, ld int, gamma, beta []float32, eps float32)
	quantize  func(dst []uint8, row []float32) quant.Q7Params
	packT     func(dst, src []float32, ld, w int)
	packTHalf func(dst []float32, src []uint16, ld, w int, bf16 bool)
}

var vecGo = vecBodies{addRowGo, geluRowGo, softmaxRowsGo, layerNormGo, q7QuantizeGo, packTransGo, packTransHalfGo}

// addRowGo adds bias into row element by element.
func addRowGo(row, bias []float32) {
	for j, b := range bias {
		row[j] += b
	}
}

// exp32's and geluRowGo's constants, named so that the vector bodies'
// table (vecK) converts the same expressions to the same float32 bits.
const (
	expLog2e = 1.44269504088896341
	expLn2Hi = 0.693359375
	expLn2Lo = -2.12194440e-4
	expShift = 1.5 * (1 << 23) // t = y+shift holds round(y) in its low mantissa bits
	expP3    = 0.16666415
	expP4    = 0.041666353
	expP5    = 0.0083751264
	expP6    = 0.0013941108
	expMin   = -87.33
	expMax   = 88.37
	geluA    = 0.044715
	geluB    = -2 * 0.7978845608028654 // −2·√(2/π)
)

// exp32 returns eʸ in float32 within 2 ulp for y in [-87.33, 88.37]
// (1.33 measured over [-87, 88]; TestExp32Accuracy pins the bound);
// callers bring y into that range with expClamp. y = k·ln2 + r,
// |r| ≤ ln2/2, with ln2 split Cody–Waite style so k·ln2Hi is exact; eʳ
// is the degree-6 polynomial through eʳ at the Chebyshev nodes of that
// interval (2.5e-9 relative error), in Horner form to stay inlinable;
// 2ᵏ is spliced into the exponent bits.
func exp32(y float32) float32 {
	t := y*expLog2e + expShift
	kf := t - expShift
	r := y - kf*expLn2Hi - kf*expLn2Lo
	p := 1 + r*(1+r*(0.5+r*(expP3+r*(expP4+r*(expP5+r*expP6)))))
	return p * math.Float32frombits((math.Float32bits(t)-0x4b400000+127)<<23)
}

// expClamp clamps y into exp32's domain, where k stays a normal
// exponent: below it eʸ is about 2⁻¹²⁶, nothing to a softmax or GELU.
// A NaN passes through.
func expClamp(y float32) float32 {
	if y < expMin {
		return expMin
	}
	if y > expMax {
		return expMax
	}
	return y
}

// geluRowGo applies GELU's tanh form ½x(1 + tanh u), u = √(2/π)(x +
// 0.044715x³), to row in place, written x / (1 + e^(−2u)) so exp32
// serves it as it serves softmax.
func geluRowGo(row []float32) {
	for j, x := range row {
		row[j] = x / (1 + exp32(expClamp(geluB*(x+geluA*x*x*x))))
	}
}

// GELU applies the Gaussian error linear unit (tanh approximation, as
// used by ViT) in place, with the row function the GEMM epilogue uses.
func GELU(t *Tensor) { vec.gelu(t.Data) }

func softmaxRowsGo(c []float32, ldc, m, n int, scale float32) {
	for i := range m {
		softmaxRowGo(c[i*ldc:][:n], scale)
	}
}

// softmaxRowGo replaces row by softmax(row·scale) for scale > 0: float32
// exponentials, a float64 sum.
func softmaxRowGo(row []float32, scale float32) {
	if len(row) == 0 {
		return
	}
	inv := softmaxExp(row, maxOf(row, row[0]), scale, 0)
	for j := range row {
		row[j] *= inv
	}
}

// maxOf returns the largest of m and xs, scanning as v > m: a NaN in xs
// is passed over, a NaN m stays.
func maxOf(xs []float32, m float32) float32 {
	for _, v := range xs {
		if v > m {
			m = v
		}
	}
	return m
}

// softmaxExp replaces each v of row by exp32(expClamp((v−maxv)·scale)),
// adds them to sum in float64 — pairs first, then a running sum — and
// returns float32(1/sum). Two elements per iteration, so their
// independent exp32 chains overlap (8 % faster than one).
func softmaxExp(row []float32, maxv, scale float32, sum float64) float32 {
	i := 0
	for ; i+1 < len(row); i += 2 {
		e0 := exp32(expClamp((row[i] - maxv) * scale))
		e1 := exp32(expClamp((row[i+1] - maxv) * scale))
		row[i], row[i+1] = e0, e1
		sum += float64(e0) + float64(e1)
	}
	if i < len(row) {
		row[i] = exp32(expClamp((row[i] - maxv) * scale))
		sum += float64(row[i])
	}
	return float32(1 / sum)
}

// SoftmaxRows applies a numerically-stable softmax to each row of a 2-D
// tensor in place.
func SoftmaxRows(t *Tensor) {
	if len(t.Shape) != 2 {
		panic("tensor: SoftmaxRows needs a 2-D tensor")
	}
	Epilogue{SoftmaxScale: 1}.Apply(t.Data, t.Shape[0], t.Shape[1])
}

// LayerNorm normalizes each row of a 2-D tensor to zero mean / unit
// variance and applies the affine parameters gamma and beta (len = row
// width). eps guards the variance.
func LayerNorm(t, gamma, beta *Tensor, eps float32) {
	if len(t.Shape) != 2 {
		panic("tensor: LayerNorm needs a 2-D tensor")
	}
	LayerNormRows(t.Data, t.Data, t.Shape[0], t.Shape[1], gamma.Data, beta.Data, eps)
}

// LayerNormRows writes the layer norm of each of the m rows of src (m×n
// row-major) into dst, which may be src. It panics with ErrShape when
// src or dst holds fewer than m·n values, gamma or beta fewer than n, or
// dst overlaps src without being it.
func LayerNormRows(dst, src []float32, m, n int, gamma, beta []float32, eps float32) {
	Norm{Dst: dst, Gamma: gamma, Beta: beta, Eps: eps}.check(src, m, n, n)
	if m > 0 && n > 0 {
		vec.norm(dst, src, m, n, n, gamma, beta, eps)
	}
}

// layerNormGo is LayerNormRows over src rows ld apart: per row a float64
// mean and a float64 sum of squared deviations, each added in column
// order, then the float32 affine.
func layerNormGo(dst, src []float32, m, n, ld int, gamma, beta []float32, eps float32) {
	for i := 0; i < m; i++ {
		row := src[i*ld : i*ld+n]
		var mean float64
		for _, v := range row {
			mean += float64(v)
		}
		mean /= float64(n)
		var varacc float64
		for _, v := range row {
			d := float64(v) - mean
			varacc += d * d
		}
		varacc /= float64(n)
		inv := float32(1 / math.Sqrt(varacc+float64(eps)))
		mu := float32(mean)
		out := dst[i*n : i*n+n]
		for j, v := range row {
			out[j] = (v-mu)*inv*gamma[j] + beta[j]
		}
	}
}

// BatchNormInference applies per-channel y = (x-mean)/sqrt(var+eps) *
// gamma + beta to an NCHW tensor, folding the statistics as TensorRT
// would at engine build time.
func BatchNormInference(t *Tensor, mean, variance, gamma, beta []float32, eps float32) {
	if len(t.Shape) != 4 {
		panic("tensor: BatchNormInference needs NCHW")
	}
	nBatch, c, h, w := t.Shape[0], t.Shape[1], t.Shape[2], t.Shape[3]
	plane := h * w
	for b := 0; b < nBatch; b++ {
		for ch := 0; ch < c; ch++ {
			inv := float32(1 / math.Sqrt(float64(variance[ch])+float64(eps)))
			scale := gamma[ch] * inv
			shift := beta[ch] - mean[ch]*scale
			base := (b*c + ch) * plane
			px := t.Data[base : base+plane]
			for i := range px {
				px[i] = px[i]*scale + shift
			}
		}
	}
}

// Transpose2D returns the transpose of a 2-D tensor.
func Transpose2D(t *Tensor) *Tensor {
	if len(t.Shape) != 2 {
		panic("tensor: Transpose2D needs a 2-D tensor")
	}
	m, n := t.Shape[0], t.Shape[1]
	out := New(n, m)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			out.Data[j*m+i] = t.Data[i*n+j]
		}
	}
	return out
}
