// Package imaging provides the raster image type and the real CPU image
// operations the HARVEST preprocessing pipeline performs: decoding,
// resizing, cropping, pixel normalization and perspective transforms.
//
// These operations actually run (they are not simulated); the CPU
// preprocessing engine in internal/preprocess times them for real, which
// is what gives the reproduction its genuine CPU-bound preprocessing
// bottleneck (paper §4.2).
package imaging

import (
	"fmt"

	"harvest/internal/stats"
)

// Channels is the number of interleaved color channels (RGB).
const Channels = 3

// Image is an 8-bit RGB raster stored interleaved row-major.
type Image struct {
	W, H int
	Pix  []uint8 // len = W*H*3, order R,G,B
}

// NewImage allocates a black image.
func NewImage(w, h int) *Image {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("imaging: invalid dimensions %dx%d", w, h))
	}
	return &Image{W: w, H: h, Pix: make([]uint8, w*h*Channels)}
}

// At returns the RGB triple at (x, y).
func (im *Image) At(x, y int) (r, g, b uint8) {
	i := (y*im.W + x) * Channels
	return im.Pix[i], im.Pix[i+1], im.Pix[i+2]
}

// Set writes the RGB triple at (x, y).
func (im *Image) Set(x, y int, r, g, b uint8) {
	i := (y*im.W + x) * Channels
	im.Pix[i], im.Pix[i+1], im.Pix[i+2] = r, g, b
}

// Clone deep-copies the image.
func (im *Image) Clone() *Image {
	out := NewImage(im.W, im.H)
	copy(out.Pix, im.Pix)
	return out
}

// SyntheticKind selects the texture family for generated content.
type SyntheticKind int

// Texture families used by the synthetic datasets. Each produces content
// with different spatial frequency so JPEG encode/decode costs vary
// across datasets like the paper's real data does.
const (
	// KindLeaf produces smooth blotchy organic texture (plant close-ups).
	KindLeaf SyntheticKind = iota
	// KindRows produces row-crop stripes as seen from a UAS.
	KindRows
	// KindSoil produces high-frequency granular soil/residue texture.
	KindSoil
	// KindFruit produces a bright object centered on a plain background.
	KindFruit
)

// Synthesize generates deterministic image content of the given kind.
// Content realism is irrelevant to the characterization study; what
// matters is that pixel statistics (spatial frequency, contrast) differ
// between dataset families so real encode/decode/transform costs differ.
func Synthesize(w, h int, kind SyntheticKind, rng *stats.RNG) *Image {
	im := NewImage(w, h)
	// Small value-noise lattice for low-frequency structure.
	const lat = 8
	noise := make([]float64, (lat+1)*(lat+1))
	for i := range noise {
		noise[i] = rng.Float64()
	}
	latAt := func(fx, fy float64) float64 {
		x0, y0 := int(fx*lat), int(fy*lat)
		tx, ty := fx*lat-float64(x0), fy*lat-float64(y0)
		n00 := noise[y0*(lat+1)+x0]
		n10 := noise[y0*(lat+1)+x0+1]
		n01 := noise[(y0+1)*(lat+1)+x0]
		n11 := noise[(y0+1)*(lat+1)+x0+1]
		return (n00*(1-tx)+n10*tx)*(1-ty) + (n01*(1-tx)+n11*tx)*ty
	}
	for y := 0; y < h; y++ {
		fy := float64(y) / float64(h)
		for x := 0; x < w; x++ {
			fx := float64(x) / float64(w)
			base := latAt(fx*0.999, fy*0.999)
			var r, g, b float64
			switch kind {
			case KindLeaf:
				g = 0.35 + 0.5*base
				r = 0.1 + 0.25*base
				b = 0.05 + 0.15*base
			case KindRows:
				stripe := 0.5 + 0.5*float64((x/12)%2)
				g = 0.25*stripe + 0.4*base
				r = 0.2*stripe + 0.2*base
				b = 0.1 * base
			case KindSoil:
				grain := rng.Float64()*0.35 + 0.65*base
				r = 0.45 * grain
				g = 0.35 * grain
				b = 0.25 * grain
			case KindFruit:
				dx, dy := fx-0.5, fy-0.5
				d := dx*dx + dy*dy
				if d < 0.09 {
					r, g, b = 0.85, 0.35+0.3*base, 0.1
				} else {
					r, g, b = 0.95, 0.95, 0.95
				}
			}
			im.Set(x, y, clamp8(r*255), clamp8(g*255), clamp8(b*255))
		}
	}
	return im
}

func clamp8(v float64) uint8 {
	if v < 0 {
		return 0
	}
	if v > 255 {
		return 255
	}
	return uint8(v)
}
