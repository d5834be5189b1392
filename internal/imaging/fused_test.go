package imaging

import (
	"bytes"
	"math"
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

// fused runs the fused kernel on src into a fresh tensor.
func fused(t testing.TB, src *Image, out int) []float32 {
	t.Helper()
	var k FusedKernel
	dst := make([]float32, FusedLen(src.W, src.H, out))
	if _, _, err := k.ResizeCropNormalizeInto(dst, src, out, ImageNetMean, ImageNetStd); err != nil {
		t.Fatal(err)
	}
	return dst
}

// randomImage is a w x h image of uniformly random bytes: every pixel
// value, unlike Synthesize's smooth fields.
func randomImage(w, h int, rng *stats.RNG) *Image {
	im := NewImage(w, h)
	for i := range im.Pix {
		im.Pix[i] = uint8(rng.Uint64())
	}
	return im
}

// TestFusedMatchesNaive is the golden-equality test: across odd and
// even source sizes, portrait/landscape/square aspect, identity-resize
// cases, downscales and upscales (the spine's 512×512 and 96×96 frames
// to 224 among them), output widths that are and are not a multiple of
// the assembly's 8-value step, and both storage formats (JPEG's lossy
// round-trip changes the pixels, so decode first and compare the
// pipelines on the same raster), the fused kernel must equal the naive
// composition exactly.
func TestFusedMatchesNaive(t *testing.T) {
	sizes := []struct{ w, h int }{
		{33, 47},   // odd portrait
		{47, 33},   // odd landscape
		{64, 64},   // square, identity resize at out=64
		{65, 63},   // off-by-one around out
		{96, 96},   // the stream's camera frame
		{128, 37},  // extreme landscape
		{37, 131},  // extreme portrait
		{224, 224}, // identity at out=224
		{301, 227}, // odd 4:3-ish
		{512, 512}, // online_frames' frame
	}
	outs := []int{5, 32, 37, 48, 64, 99, 224}
	for _, kind := range []SyntheticKind{KindLeaf, KindSoil} {
		for _, sz := range sizes {
			src := Synthesize(sz.w, sz.h, kind, stats.NewRNG(uint64(sz.w*1000+sz.h)))
			for _, out := range outs {
				compareTensors(t, naivePreproc(src, out), fused(t, src, out), sz.w, sz.h, out)
			}
		}
	}
}

// TestFusedMatchesNaiveUpscale covers sources smaller than the output
// resolution (the resize upscales, crop is full-frame).
func TestFusedMatchesNaiveUpscale(t *testing.T) {
	src := Synthesize(21, 17, KindFruit, stats.NewRNG(3))
	for _, out := range []int{32, 33, 64} {
		compareTensors(t, naivePreproc(src, out), fused(t, src, out), 21, 17, out)
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
		compareTensors(t, naivePreproc(im, 48), fused(t, im, 48), im.W, im.H, 48)
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
	warped := NewImage(96, 96)
	WarpPerspectiveInto(warped, src, hom)
	compareTensors(t, naivePreproc(warped, 32), fused(t, warped, 32), warped.W, warped.H, 32)
}

// TestFusedBodiesAgree runs the kernel on its assembly bodies (where
// the CPU has AVX2) and on its Go bodies over random sizes, outputs
// (so random crop offsets, downscales and upscales) and random bytes,
// and wants both equal to the naive composition bit for bit.
func TestFusedBodiesAgree(t *testing.T) {
	if !fusedAVX2 {
		t.Log("CPU has no AVX2: only the Go bodies run")
	}
	rng := stats.NewRNG(38)
	for i := 0; i < 150; i++ {
		w, h, out := 1+rng.Intn(160), 1+rng.Intn(160), 1+rng.Intn(130)
		src := randomImage(w, h, rng)
		want := naivePreproc(src, out)
		compareTensors(t, want, fused(t, src, out), w, h, out)
		WithGoBodies(func() { compareTensors(t, want, fused(t, src, out), w, h, out) })
	}
}

// FuzzFusedMatchesNaive: for any source size, output size and pixel
// content, the fused kernel's bits are the naive composition's. Sizes
// are capped so one input stays a few milliseconds.
func FuzzFusedMatchesNaive(f *testing.F) {
	f.Fuzz(func(t *testing.T, w, h, out uint16, seed uint64) {
		if w == 0 || h == 0 || out == 0 || w > 640 || h > 640 || out > 320 {
			return
		}
		src := randomImage(int(w), int(h), stats.NewRNG(seed))
		compareTensors(t, naivePreproc(src, int(out)), fused(t, src, int(out)), int(w), int(h), int(out))
	})
}

// compareTensors wants want and got bit for bit equal (so -0 differs
// from +0).
func compareTensors(t *testing.T, want, got []float32, w, h, out int) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("src %dx%d out %d: lengths %d vs %d", w, h, out, len(want), len(got))
	}
	for i := range want {
		if math.Float32bits(want[i]) != math.Float32bits(got[i]) {
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
	// A source whose Pix is short of its dimensions, or whose dimensions
	// are not positive, is refused before any pixel is read.
	for _, bad := range []*Image{
		{W: 8, H: 8, Pix: src.Pix[:len(src.Pix)-1]},
		{W: 8, H: 8},
		{W: 0, H: 8, Pix: src.Pix},
		{W: 8, H: -1, Pix: src.Pix},
		{W: 1 << 40, H: 1 << 40, Pix: src.Pix}, // W·H·3 overflows int
	} {
		dst := make([]float32, FusedLen(8, 8, 4))
		if _, _, err := k.ResizeCropNormalizeInto(dst, bad, 4, ImageNetMean, ImageNetStd); err == nil {
			t.Errorf("%dx%d source with %d pixel bytes accepted", bad.W, bad.H, len(bad.Pix))
		}
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
