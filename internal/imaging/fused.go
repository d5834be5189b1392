package imaging

import (
	"fmt"
	"math"
)

// This file implements the fused preprocessing kernel: the
// ResizeShortSide → CenterCrop → Normalize composition collapsed into
// one separable pass that writes directly into a caller-supplied CHW
// float32 buffer. The naive composition materializes three
// intermediate full-size buffers per image (the resized image, the
// cropped image, the output tensor); the fused kernel materializes
// none and never computes resized pixels that the center crop would
// discard.
//
// Resize's bilinear sample is separable: its top and bottom terms,
// float64(a)*(1-tx) + float64(b)*tx, depend only on the source row and
// the output column. So each source row the crop needs is lerped
// horizontally once, into a two-row planar cache (horizontal pass), and
// each output row is then one contiguous blend of two cached rows per
// channel plane (vertical pass). Both passes keep Resize's and
// Normalize's expressions and operation order, in float64 and float32
// as they have them, so the output is bit-for-bit equal to the naive
// composition — TestFusedMatchesNaive pins this. Each pass has a Go
// body and, on amd64 with AVX2, an assembly body (fused_amd64.s) that
// does the same IEEE operations lane by lane (no FMA), so the two
// agree bit for bit; the assembly takes the longest prefix it can and
// the Go body finishes the row.

// FusedDims returns the post-crop output dimensions the fused kernel
// (and the naive ResizeShortSide→CenterCrop composition) produces for
// a srcW x srcH source at output resolution out. Both are out except
// in the degenerate case where the aspect-preserving resize leaves a
// dimension below out (impossible for out >= 1 and positive sources,
// kept for exact CenterCrop clamp parity).
func FusedDims(srcW, srcH, out int) (w, h int) {
	rw, rh := resizeShortSideDims(srcW, srcH, out)
	w, h = out, out
	if w > rw {
		w = rw
	}
	if h > rh {
		h = rh
	}
	return w, h
}

// FusedLen returns the CHW tensor length the fused kernel produces.
func FusedLen(srcW, srcH, out int) int {
	w, h := FusedDims(srcW, srcH, out)
	return Channels * w * h
}

// resizeShortSideDims mirrors ResizeShortSide's target size
// computation without performing the resize.
func resizeShortSideDims(srcW, srcH, target int) (int, int) {
	if srcW <= srcH {
		h := int(float64(srcH) * float64(target) / float64(srcW))
		if h < 1 {
			h = 1
		}
		return target, h
	}
	w := int(float64(srcW) * float64(target) / float64(srcH))
	if w < 1 {
		w = 1
	}
	return w, target
}

// sample is Resize's bilinear sample map for output index i at the
// given source/output ratio: the two source indices and the weight of
// the second, in Resize's expressions.
func sample(i int, ratio float64, size int) (i0, i1 int, t float64) {
	s := (float64(i)+0.5)*ratio - 0.5
	i0 = int(s)
	if s < 0 {
		s, i0 = 0, 0
	}
	t = s - float64(i0)
	i1 = i0 + 1
	if i1 >= size {
		i1 = size - 1
	}
	return i0, i1, t
}

// FusedKernel is a reusable fused-preprocessing kernel. Its scratch
// (the per-column sample map, the two lerped rows, the normalization
// table) is retained between calls, so a long-lived worker allocates
// only when the output width grows. The zero value is ready to use.
// Not safe for concurrent use; give each worker its own.
type FusedKernel struct {
	// x0 and x1 are the byte offsets, within a source row, of each
	// output column's left and right source pixel; x1 never decreases
	// along the row. wx0 and wx1 are their weights, 1-tx and tx.
	x0, x1   []int32
	wx0, wx1 []float64
	rows     [2]lerpedRow
	// norm[c][p] is (float32(p)/255 - mean[c]) * (1/std[c]) in Normalize's
	// float32 expressions, for the mean and std in normFor.
	norm    [Channels][256]float32
	normFor [2][Channels]float32
	normSet bool
}

// lerpedRow is source row y lerped horizontally at every output
// column: Channels planes of w float64 values (y is -1 when empty).
type lerpedRow struct {
	y   int
	pix []float64
}

// ResizeCropNormalizeInto runs the fused pipeline: aspect-preserving
// resize of the short side to out, centered out x out crop, ImageNet-style
// (x/255 - mean)/std normalization, written channel-major into dst.
// dst must have length FusedLen(src.W, src.H, out); the produced crop
// dimensions are returned. The output is bit-for-bit identical to
// Normalize(CenterCrop(ResizeShortSide(src, out), out, out), mean, std).
// A source without W·H·3 pixel bytes is refused with an error.
func (k *FusedKernel) ResizeCropNormalizeInto(dst []float32, src *Image, out int, mean, std [3]float32) (w, h int, err error) {
	if out <= 0 {
		return 0, 0, fmt.Errorf("imaging: fused resize to invalid output %d", out)
	}
	// The assembly bodies do no bounds checks: the source must hold
	// every pixel its dimensions claim, and a row's byte offsets must
	// fit the gather's int32 indices.
	if src.W <= 0 || src.H <= 0 || len(src.Pix)/Channels/src.W < src.H {
		return 0, 0, fmt.Errorf("imaging: fused source %dx%d with %d pixel bytes", src.W, src.H, len(src.Pix))
	}
	if src.W > (math.MaxInt32-4)/Channels {
		return 0, 0, fmt.Errorf("imaging: fused source width %d too large", src.W)
	}
	rw, rh := resizeShortSideDims(src.W, src.H, out)
	w, h = FusedDims(src.W, src.H, out)
	if len(dst) != Channels*w*h {
		return 0, 0, fmt.Errorf("imaging: fused dst length %d, need %d", len(dst), Channels*w*h)
	}
	k.setNorm(mean, std)
	var inv [Channels]float32
	for c := range inv {
		inv[c] = 1 / std[c] // Normalize's expression
	}
	// Center-crop offsets in resized coordinates.
	cx := (rw - w) / 2
	cy := (rh - h) / 2
	k.mapColumns(src.W, rw, cx, w)
	yRatio := float64(src.H) / float64(rh)
	n := w * h
	for y := 0; y < h; y++ {
		y0, y1, ty := sample(cy+y, yRatio, src.H)
		top := k.lerped(src, y0, y1, w)
		bot := k.lerped(src, y1, y0, w)
		for c := 0; c < Channels; c++ {
			d := dst[c*n+y*w : c*n+(y+1)*w]
			t, b := top[c*w:(c+1)*w], bot[c*w:(c+1)*w]
			x := blendAsm(d, t, b, ty, mean[c], inv[c])
			blendGo(d[x:], t[x:], b[x:], ty, &k.norm[c])
		}
	}
	return w, h, nil
}

// setNorm fills the normalization table for mean and std, unless it
// already holds them.
func (k *FusedKernel) setNorm(mean, std [3]float32) {
	key := [2][Channels]float32{mean, std}
	if k.normSet && k.normFor == key {
		return
	}
	for c := 0; c < Channels; c++ {
		inv, m := 1/std[c], mean[c]
		for p := range k.norm[c] {
			v := float32(p) / 255
			k.norm[c][p] = (v - m) * inv
		}
	}
	k.normFor, k.normSet = key, true
}

// mapColumns fills the column sample map for output columns
// [cx, cx+w) of a srcW-wide source resized to rw, and empties the row
// cache.
func (k *FusedKernel) mapColumns(srcW, rw, cx, w int) {
	if cap(k.x0) < w {
		k.x0, k.x1 = make([]int32, w), make([]int32, w)
		k.wx0, k.wx1 = make([]float64, w), make([]float64, w)
	}
	k.x0, k.x1, k.wx0, k.wx1 = k.x0[:w], k.x1[:w], k.wx0[:w], k.wx1[:w]
	xRatio := float64(srcW) / float64(rw)
	for x := 0; x < w; x++ {
		x0, x1, tx := sample(cx+x, xRatio, srcW)
		k.x0[x], k.x1[x] = int32(x0*Channels), int32(x1*Channels)
		k.wx0[x], k.wx1[x] = 1-tx, tx
	}
	for i := range k.rows {
		r := &k.rows[i]
		if cap(r.pix) < Channels*w {
			r.pix = make([]float64, Channels*w)
		}
		r.y, r.pix = -1, r.pix[:Channels*w]
	}
}

// lerped returns the planes of source row y lerped at every output
// column, lerping it into the cache slot that does not hold row keep
// when it is not cached.
func (k *FusedKernel) lerped(src *Image, y, keep, w int) []float64 {
	for i := range k.rows {
		if k.rows[i].y == y {
			return k.rows[i].pix
		}
	}
	i := 0
	if k.rows[0].y == keep {
		i = 1
	}
	r := &k.rows[i]
	// The row runs to the end of Pix: the gathers read a pixel's four
	// bytes, and lerpRowAsm leaves to the Go body the columns whose
	// fourth byte lies past it.
	row := src.Pix[y*src.W*Channels:]
	x := lerpRowAsm(r.pix, w, row, k.x0, k.x1, k.wx0, k.wx1)
	lerpRowGo(r.pix, w, row, k.x0, k.x1, k.wx0, k.wx1, x)
	r.y = y
	return r.pix
}

// lerpRowGo is the Go body of the horizontal pass: it lerps row at
// output columns [from, len(x0)) into dst's Channels planes, stride
// values apart.
func lerpRowGo(dst []float64, stride int, row []byte, x0, x1 []int32, wx0, wx1 []float64, from int) {
	for x := from; x < len(x0); x++ {
		a, b, w0, w1 := int(x0[x]), int(x1[x]), wx0[x], wx1[x]
		for c := 0; c < Channels; c++ {
			dst[c*stride+x] = float64(row[a+c])*w0 + float64(row[b+c])*w1
		}
	}
}

// blendGo is the Go body of the vertical pass for one channel plane:
// Resize's vertical blend and rounding, then the plane's row of the
// normalization table.
func blendGo(dst []float32, top, bot []float64, ty float64, norm *[256]float32) {
	for x := range dst {
		dst[x] = norm[clamp8(top[x]*(1-ty)+bot[x]*ty+0.5)]
	}
}
