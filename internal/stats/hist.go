package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Hist2D is a fixed-bin 2-D histogram, used for the width x height image
// size densities of Fig. 4.
type Hist2D struct {
	XLo, XHi, YLo, YHi float64
	XBins, YBins       int
	Counts             []int // row-major: y*XBins + x
}

// NewHist2D creates a 2-D histogram.
func NewHist2D(xlo, xhi float64, xbins int, ylo, yhi float64, ybins int) *Hist2D {
	if xbins <= 0 || ybins <= 0 || xhi <= xlo || yhi <= ylo {
		panic("stats: invalid hist2d parameters")
	}
	return &Hist2D{XLo: xlo, XHi: xhi, YLo: ylo, YHi: yhi,
		XBins: xbins, YBins: ybins, Counts: make([]int, xbins*ybins)}
}

// Add records an (x, y) observation; out-of-range points are clamped to
// the boundary bins so no mass is lost.
func (h *Hist2D) Add(x, y float64) {
	xi := int((x - h.XLo) / (h.XHi - h.XLo) * float64(h.XBins))
	yi := int((y - h.YLo) / (h.YHi - h.YLo) * float64(h.YBins))
	if xi < 0 {
		xi = 0
	}
	if xi >= h.XBins {
		xi = h.XBins - 1
	}
	if yi < 0 {
		yi = 0
	}
	if yi >= h.YBins {
		yi = h.YBins - 1
	}
	h.Counts[yi*h.XBins+xi]++
}

// Mode returns the (x, y) center of the fullest cell.
func (h *Hist2D) Mode() (float64, float64) {
	best := 0
	for i, c := range h.Counts {
		if c > h.Counts[best] {
			best = i
		}
	}
	xi, yi := best%h.XBins, best/h.XBins
	xw := (h.XHi - h.XLo) / float64(h.XBins)
	yw := (h.YHi - h.YLo) / float64(h.YBins)
	return h.XLo + (float64(xi)+0.5)*xw, h.YLo + (float64(yi)+0.5)*yw
}

// KDE1D evaluates a Gaussian kernel density estimate of samples at each
// of the points, with the given bandwidth. Used to produce the smooth
// density curves of Fig. 4.
func KDE1D(samples, points []float64, bandwidth float64) []float64 {
	if bandwidth <= 0 {
		bandwidth = SilvermanBandwidth(samples)
	}
	out := make([]float64, len(points))
	if len(samples) == 0 {
		return out
	}
	norm := 1 / (float64(len(samples)) * bandwidth * math.Sqrt(2*math.Pi))
	for i, p := range points {
		acc := 0.0
		for _, s := range samples {
			z := (p - s) / bandwidth
			acc += math.Exp(-0.5 * z * z)
		}
		out[i] = acc * norm
	}
	return out
}

// SilvermanBandwidth returns Silverman's rule-of-thumb bandwidth.
func SilvermanBandwidth(samples []float64) float64 {
	n := len(samples)
	if n < 2 {
		return 1
	}
	sd := StdDev(samples)
	if sd == 0 {
		return 1
	}
	return 1.06 * sd * math.Pow(float64(n), -0.2)
}

// Mean returns the arithmetic mean.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// StdDev returns the population standard deviation.
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(xs)))
}

// Percentile returns the p-th percentile (0..100) using linear
// interpolation between closest ranks. The input is not modified.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	cp := make([]float64, len(xs))
	copy(cp, xs)
	sort.Float64s(cp)
	if p <= 0 {
		return cp[0]
	}
	if p >= 100 {
		return cp[len(cp)-1]
	}
	rank := p / 100 * float64(len(cp)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return cp[lo]
	}
	frac := rank - float64(lo)
	return cp[lo]*(1-frac) + cp[hi]*frac
}

// Summary bundles the usual descriptive statistics of a sample.
type Summary struct {
	N                  int
	Mean, Std          float64
	Min, Max           float64
	P50, P90, P95, P99 float64
}

// String renders the summary on one line.
func (s Summary) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "n=%d mean=%.3f std=%.3f min=%.3f p50=%.3f p95=%.3f p99=%.3f max=%.3f",
		s.N, s.Mean, s.Std, s.Min, s.P50, s.P95, s.P99, s.Max)
	return b.String()
}
