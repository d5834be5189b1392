package imaging

import (
	"runtime"
	"sync"
)

// Buffer pooling for the preprocessing hot path. A naive per-image
// pipeline allocates (and for raw frames, zeroes) tens of megabytes
// per sample; under serving load that allocator and GC traffic is pure
// overhead. TensorPool recycles tensors safely across goroutines;
// ReuseImage is the single-owner variant for a worker's pinned scratch
// raster.

// TensorPool recycles CHW float32 tensor buffers across requests.
// The zero value is ready to use. Get never returns a smaller buffer
// than requested; undersized pooled buffers are dropped for the GC.
//
// It is a free list of at most one spare per P, the private slots of a
// sync.Pool without the shared overflow: a served tensor is 602 KB, an
// idle one is live heap the collector doubles into its goal, and a
// sync.Pool keeps every spare of the busiest moment of the last two
// collections.
type TensorPool struct {
	mu   sync.Mutex
	free [][]float32
}

// Get returns a length-n float32 buffer with arbitrary contents.
func (tp *TensorPool) Get(n int) []float32 {
	var t []float32
	tp.mu.Lock()
	if last := len(tp.free) - 1; last >= 0 {
		t, tp.free[last] = tp.free[last], nil
		tp.free = tp.free[:last]
	}
	tp.mu.Unlock()
	if cap(t) >= n {
		return t[:n]
	}
	return make([]float32, n)
}

// Put recycles a buffer obtained from Get (or anywhere else), or drops
// it when every spare slot is taken. The caller must not retain t
// afterwards.
func (tp *TensorPool) Put(t []float32) {
	if cap(t) == 0 {
		return
	}
	spares := runtime.GOMAXPROCS(0)
	tp.mu.Lock()
	if len(tp.free) < spares {
		tp.free = append(tp.free, t)
	}
	tp.mu.Unlock()
}

// ReuseImage resizes im to w x h reusing its pixel buffer when it is
// large enough, allocating otherwise. Pixel contents are undefined; a
// nil im is allocated fresh.
func ReuseImage(im *Image, w, h int) *Image {
	n := w * h * Channels
	if im == nil || cap(im.Pix) < n {
		return NewImage(w, h)
	}
	im.W, im.H = w, h
	im.Pix = im.Pix[:n]
	return im
}

// WarpPerspectiveInto renders src through the homography into dst
// (whose dimensions define the output) using bilinear sampling. This is
// the task-specific preprocessing step the CRSA ground-vehicle camera
// feed requires (paper §3.2: "raw camera streams may require
// perspective transformation"). Out-of-range regions are painted
// black, so dirty recycled buffers are safe.
func WarpPerspectiveInto(dst, src *Image, h Homography) {
	for y := 0; y < dst.H; y++ {
		for x := 0; x < dst.W; x++ {
			sx, sy := h.Apply(float64(x), float64(y))
			di := (y*dst.W + x) * Channels
			if sx < 0 || sy < 0 || sx > float64(src.W-1) || sy > float64(src.H-1) {
				dst.Pix[di], dst.Pix[di+1], dst.Pix[di+2] = 0, 0, 0
				continue
			}
			x0, y0 := int(sx), int(sy)
			x1, y1 := x0+1, y0+1
			if x1 >= src.W {
				x1 = src.W - 1
			}
			if y1 >= src.H {
				y1 = src.H - 1
			}
			tx, ty := sx-float64(x0), sy-float64(y0)
			for c := 0; c < Channels; c++ {
				i00 := (y0*src.W + x0) * Channels
				i10 := (y0*src.W + x1) * Channels
				i01 := (y1*src.W + x0) * Channels
				i11 := (y1*src.W + x1) * Channels
				top := float64(src.Pix[i00+c])*(1-tx) + float64(src.Pix[i10+c])*tx
				bot := float64(src.Pix[i01+c])*(1-tx) + float64(src.Pix[i11+c])*tx
				dst.Pix[di+c] = clamp8(top*(1-ty) + bot*ty + 0.5)
			}
		}
	}
}
