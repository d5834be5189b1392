package imaging

import (
	"bytes"
	"runtime"
	"testing"

	"harvest/internal/stats"
)

// naivePreproc is the reference three-pass composition the fused
// kernel must match bit-for-bit.
func naivePreproc(src *Image, out int) []float32 {
	resized := ResizeShortSide(src, out)
	cropped := CenterCrop(resized, out, out)
	return Normalize(cropped, ImageNetMean, ImageNetStd)
}

// TestFusedMatchesNaive is the golden-equality test: across odd and
// even source sizes, portrait/landscape/square aspect, identity-resize
// cases, and both storage formats (JPEG's lossy round-trip changes the
// pixels, so decode first and compare the pipelines on the same
// raster), the fused kernel must equal the naive composition exactly.
func TestFusedMatchesNaive(t *testing.T) {
	sizes := []struct{ w, h int }{
		{33, 47},   // odd portrait
		{47, 33},   // odd landscape
		{64, 64},   // square, identity resize at out=64
		{65, 63},   // off-by-one around out
		{128, 37},  // extreme landscape
		{37, 131},  // extreme portrait
		{224, 224}, // identity at out=224
		{301, 227}, // odd 4:3-ish
	}
	outs := []int{32, 48, 64, 224}
	for _, kind := range []SyntheticKind{KindLeaf, KindSoil} {
		for _, sz := range sizes {
			src := Synthesize(sz.w, sz.h, kind, stats.NewRNG(uint64(sz.w*1000+sz.h)))
			for _, out := range outs {
				if out > sz.w || out > sz.h {
					continue // upscale crops degenerate identically; covered below
				}
				want := naivePreproc(src, out)
				got := FusedResizeCropNormalize(src, out, ImageNetMean, ImageNetStd)
				compareTensors(t, want, got, sz.w, sz.h, out)
			}
		}
	}
}

// TestFusedMatchesNaiveUpscale covers sources smaller than the output
// resolution (the resize upscales, crop is full-frame).
func TestFusedMatchesNaiveUpscale(t *testing.T) {
	src := Synthesize(21, 17, KindFruit, stats.NewRNG(3))
	for _, out := range []int{32, 33, 64} {
		want := naivePreproc(src, out)
		got := FusedResizeCropNormalize(src, out, ImageNetMean, ImageNetStd)
		compareTensors(t, want, got, 21, 17, out)
	}
}

// TestFusedMatchesNaiveAfterCodecRoundTrip runs both pipelines on
// pixels that really went through each storage format's encode/decode,
// so format-specific pixel statistics are represented.
func TestFusedMatchesNaiveAfterCodecRoundTrip(t *testing.T) {
	src := Synthesize(99, 77, KindRows, stats.NewRNG(9))
	for _, f := range []Format{FormatJPEG, FormatPPM} {
		data, err := EncodeBytes(src, f)
		if err != nil {
			t.Fatal(err)
		}
		im, err := DecodeBytes(data, f)
		if err != nil {
			t.Fatal(err)
		}
		want := naivePreproc(im, 48)
		got := FusedResizeCropNormalize(im, 48, ImageNetMean, ImageNetStd)
		compareTensors(t, want, got, im.W, im.H, 48)
	}
}

// TestFusedMatchesNaiveAfterWarp covers perspective items: the warp
// runs first in both pipelines (it is not part of the fused kernel),
// and the fused tail must still match exactly on the warped raster.
func TestFusedMatchesNaiveAfterWarp(t *testing.T) {
	src := Synthesize(161, 121, KindSoil, stats.NewRNG(5))
	hom, err := GroundCameraHomography(src.W, src.H, 96, 96)
	if err != nil {
		t.Fatal(err)
	}
	warped := WarpPerspective(src, hom, 96, 96)
	want := naivePreproc(warped, 32)
	got := FusedResizeCropNormalize(warped, 32, ImageNetMean, ImageNetStd)
	compareTensors(t, want, got, warped.W, warped.H, 32)
}

func compareTensors(t *testing.T, want, got []float32, w, h, out int) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("src %dx%d out %d: lengths %d vs %d", w, h, out, len(want), len(got))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("src %dx%d out %d: diverge at %d: naive %v fused %v",
				w, h, out, i, want[i], got[i])
		}
	}
}

func TestFusedKernelReuseAcrossSizes(t *testing.T) {
	// One kernel across varying sizes must not cross-contaminate.
	var k FusedKernel
	for _, sz := range []struct{ w, h int }{{50, 40}, {40, 50}, {200, 100}, {31, 31}} {
		src := Synthesize(sz.w, sz.h, KindLeaf, stats.NewRNG(uint64(sz.w)))
		dst := make([]float32, FusedLen(sz.w, sz.h, 24))
		if _, _, err := k.ResizeCropNormalizeInto(dst, src, 24, ImageNetMean, ImageNetStd); err != nil {
			t.Fatal(err)
		}
		want := naivePreproc(src, 24)
		compareTensors(t, want, dst, sz.w, sz.h, 24)
	}
}

func TestFusedKernelRejectsBadArgs(t *testing.T) {
	var k FusedKernel
	src := NewImage(8, 8)
	if _, _, err := k.ResizeCropNormalizeInto(nil, src, 0, ImageNetMean, ImageNetStd); err == nil {
		t.Error("out=0 accepted")
	}
	if _, _, err := k.ResizeCropNormalizeInto(make([]float32, 5), src, 4, ImageNetMean, ImageNetStd); err == nil {
		t.Error("short dst accepted")
	}
}

func TestTensorPoolRecycles(t *testing.T) {
	var tp TensorPool
	a := tp.Get(64)
	if len(a) != 64 {
		t.Fatalf("got len %d", len(a))
	}
	a[0] = 42
	tp.Put(a)
	b := tp.Get(32)
	if len(b) != 32 {
		t.Fatalf("reused len %d", len(b))
	}
	// Undersized pooled buffers must not be returned.
	tp.Put(make([]float32, 4))
	c := tp.Get(1 << 12)
	if len(c) != 1<<12 {
		t.Fatalf("oversize get len %d", len(c))
	}
	tp.Put(nil) // must not panic

	// At most one spare per P is kept: idle 602 KB tensors are live heap.
	var spares TensorPool
	given := map[*float32]bool{}
	for i := 0; i < runtime.GOMAXPROCS(0)+3; i++ {
		b := make([]float32, 16)
		given[&b[0]] = true
		spares.Put(b)
	}
	kept := 0
	for i := 0; i < len(given); i++ {
		if b := spares.Get(16); given[&b[0]] {
			kept++
		}
	}
	if kept != runtime.GOMAXPROCS(0) {
		t.Fatalf("%d of %d buffers came back, want one per P (%d)", kept, len(given), runtime.GOMAXPROCS(0))
	}
}

func TestImagePoolRecyclesAndZeroes(t *testing.T) {
	var ip ImagePool
	a := ip.Get(8, 8)
	for i := range a.Pix {
		a.Pix[i] = 0xFF
	}
	ip.Put(a)
	b := ip.GetZeroed(4, 4)
	if b.W != 4 || b.H != 4 || len(b.Pix) != 48 {
		t.Fatalf("bad pooled image %dx%d len %d", b.W, b.H, len(b.Pix))
	}
	for i, p := range b.Pix {
		if p != 0 {
			t.Fatalf("GetZeroed left dirty byte at %d", i)
		}
	}
	ip.Put(nil) // must not panic
}

func TestReuseImage(t *testing.T) {
	im := ReuseImage(nil, 4, 4)
	if im.W != 4 || len(im.Pix) != 48 {
		t.Fatal("fresh ReuseImage wrong")
	}
	im.Pix[0] = 7
	re := ReuseImage(im, 2, 2)
	if re.W != 2 || len(re.Pix) != 12 || &re.Pix[0] != &im.Pix[0] {
		t.Error("ReuseImage did not reuse the buffer")
	}
	grown := ReuseImage(re, 16, 16)
	if grown.W != 16 || len(grown.Pix) != 16*16*3 {
		t.Error("ReuseImage did not grow")
	}
}

func TestDecodeBytesIntoReusesBuffer(t *testing.T) {
	src := Synthesize(24, 18, KindRows, stats.NewRNG(2))
	for _, f := range []Format{FormatPPM, FormatJPEG} {
		data, err := EncodeBytes(src, f)
		if err != nil {
			t.Fatal(err)
		}
		scratch := NewImage(64, 64) // plenty of capacity
		buf := &scratch.Pix[0]
		im, err := DecodeBytesInto(data, f, scratch)
		if err != nil {
			t.Fatal(err)
		}
		if im.W != 24 || im.H != 18 {
			t.Fatalf("%v: decoded %dx%d", f, im.W, im.H)
		}
		if &im.Pix[0] != buf {
			t.Errorf("%v: DecodeBytesInto did not reuse the buffer", f)
		}
		plain, err := DecodeBytes(data, f)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(im.Pix, plain.Pix) {
			t.Errorf("%v: reused decode differs from plain decode", f)
		}
	}
	if _, err := DecodeBytesInto([]byte("junk"), Format(99), nil); err == nil {
		t.Error("unknown format accepted")
	}
}

func TestWarpPerspectiveIntoMatchesAlloc(t *testing.T) {
	src := Synthesize(80, 60, KindSoil, stats.NewRNG(4))
	hom, err := GroundCameraHomography(src.W, src.H, 40, 40)
	if err != nil {
		t.Fatal(err)
	}
	want := WarpPerspective(src, hom, 40, 40)
	dst := NewImage(40, 40)
	for i := range dst.Pix {
		dst.Pix[i] = 0xAB // dirty buffer: Into must repaint out-of-range black
	}
	WarpPerspectiveInto(dst, src, hom)
	if !bytes.Equal(want.Pix, dst.Pix) {
		t.Error("WarpPerspectiveInto differs from WarpPerspective")
	}
}
