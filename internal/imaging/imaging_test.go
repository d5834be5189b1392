package imaging

import (
	"bytes"
	"encoding/binary"
	"image/jpeg"
	"runtime"
	"testing"

	"harvest/internal/stats"
)

func TestNewImage(t *testing.T) {
	im := NewImage(4, 3)
	if im.W != 4 || im.H != 3 || len(im.Pix) != 36 {
		t.Fatalf("bad image %+v", im)
	}
	if len(im.Pix) != 36 {
		t.Errorf("len(Pix) = %d", len(im.Pix))
	}
	defer func() {
		if recover() == nil {
			t.Error("NewImage(0,1) did not panic")
		}
	}()
	NewImage(0, 1)
}

func TestSetAt(t *testing.T) {
	im := NewImage(3, 3)
	im.Set(1, 2, 10, 20, 30)
	r, g, b := im.At(1, 2)
	if r != 10 || g != 20 || b != 30 {
		t.Errorf("At = %d,%d,%d", r, g, b)
	}
}

func TestCloneIndependence(t *testing.T) {
	im := NewImage(2, 2)
	im.Set(0, 0, 5, 5, 5)
	cp := im.Clone()
	cp.Set(0, 0, 9, 9, 9)
	if r, _, _ := im.At(0, 0); r != 5 {
		t.Error("Clone shares pixels")
	}
}

func TestSynthesizeDeterministic(t *testing.T) {
	for _, kind := range []SyntheticKind{KindLeaf, KindRows, KindSoil, KindFruit} {
		a := Synthesize(32, 24, kind, stats.NewRNG(7))
		b := Synthesize(32, 24, kind, stats.NewRNG(7))
		if !bytes.Equal(a.Pix, b.Pix) {
			t.Errorf("kind %v not deterministic", kind)
		}
	}
}

func TestSynthesizeKindsDiffer(t *testing.T) {
	a := Synthesize(32, 32, KindLeaf, stats.NewRNG(1))
	b := Synthesize(32, 32, KindSoil, stats.NewRNG(1))
	if bytes.Equal(a.Pix, b.Pix) {
		t.Error("different texture kinds produced identical pixels")
	}
}

func TestSynthesizeNonTrivialContent(t *testing.T) {
	im := Synthesize(64, 64, KindRows, stats.NewRNG(3))
	// Content should not be constant.
	first := im.Pix[0]
	varies := false
	for _, p := range im.Pix {
		if p != first {
			varies = true
			break
		}
	}
	if !varies {
		t.Error("synthesized image is constant")
	}
}

func TestPPMRoundTrip(t *testing.T) {
	im := Synthesize(17, 9, KindLeaf, stats.NewRNG(5))
	var buf bytes.Buffer
	if err := EncodePPM(&buf, im); err != nil {
		t.Fatal(err)
	}
	back, err := DecodeBytes(buf.Bytes(), FormatPPM)
	if err != nil {
		t.Fatal(err)
	}
	if back.W != im.W || back.H != im.H || !bytes.Equal(back.Pix, im.Pix) {
		t.Error("PPM round trip not exact")
	}
}

func TestDecodePPMErrors(t *testing.T) {
	cases := []string{
		"",
		"P5\n2 2\n255\n",   // wrong magic
		"P6\n2 2\n128\n",   // wrong maxval
		"P6\n-3 2\n255\n",  // bad dims
		"P6\n2 2\n255\nab", // short pixel data
	}
	for i, c := range cases {
		if _, err := DecodeBytes([]byte(c), FormatPPM); err == nil {
			t.Errorf("case %d: PPM decode accepted malformed input", i)
		}
	}
}

// claimingJPEG is a 16x16 JPEG whose frame header is patched to claim
// w x h: a short input that says it is a large image.
func claimingJPEG(t *testing.T, w, h int) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := EncodeJPEG(&buf, Synthesize(16, 16, KindLeaf, stats.NewRNG(1)), 85); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	sof := bytes.Index(data, []byte{0xFF, 0xC0}) // then length(2) precision(1) height(2) width(2)
	binary.BigEndian.PutUint16(data[sof+5:], uint16(h))
	binary.BigEndian.PutUint16(data[sof+7:], uint16(w))
	if cfg, err := jpeg.DecodeConfig(bytes.NewReader(data)); err != nil || cfg.Width != w || cfg.Height != h {
		t.Fatalf("patched header reads %+v, %v", cfg, err)
	}
	return data
}

func TestDecodeRefusesClaimsBeforeAllocating(t *testing.T) {
	cases := []struct {
		name string
		data []byte
		f    Format
	}{
		{"19-byte ppm header claiming 16384x16384", []byte("P6 16384 16384 255 "), FormatPPM},
		{"ppm claiming 4096x4096 with 1 KB of pixels", append([]byte("P6\n4096 4096\n255\n"), make([]byte, 1024)...), FormatPPM},
		{"truncated jpeg claiming 8192x8192", claimingJPEG(t, 8192, 8192), FormatJPEG},
	}
	for _, c := range cases {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := DecodeBytes(c.data, c.f)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: accepted", c.name)
		}
		if n := after.TotalAlloc - before.TotalAlloc; n >= 1<<20 {
			t.Errorf("%s (%d bytes): decode allocated %d bytes before refusing it", c.name, len(c.data), n)
		}
	}
}

// FuzzDecodeBytes feeds both decoders arbitrary bytes. Whatever either
// accepts must be a whole raster, and a PPM's raster must have come
// from the input. The seed corpus in testdata/fuzz/FuzzDecodeBytes has
// a valid image of each format, the 19-byte PPM header claiming
// 16384x16384, a truncated JPEG claiming 8192x8192 and a JPEG that
// decodes to an empty image.
func FuzzDecodeBytes(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, ppm bool) {
		format := FormatJPEG
		if ppm {
			format = FormatPPM
		}
		im, err := DecodeBytes(data, format)
		if err != nil {
			return
		}
		if len(im.Pix) != im.W*im.H*Channels {
			t.Fatalf("%dx%d image with %d pixel bytes", im.W, im.H, len(im.Pix))
		}
		if ppm && !bytes.Contains(data, im.Pix) {
			t.Fatalf("%dx%d ppm raster not in its %d-byte input", im.W, im.H, len(data))
		}
	})
}

func TestJPEGRoundTripApproximate(t *testing.T) {
	im := Synthesize(48, 32, KindLeaf, stats.NewRNG(6))
	var buf bytes.Buffer
	if err := EncodeJPEG(&buf, im, 90); err != nil {
		t.Fatal(err)
	}
	back, err := DecodeBytes(buf.Bytes(), FormatJPEG)
	if err != nil {
		t.Fatal(err)
	}
	if back.W != im.W || back.H != im.H {
		t.Fatalf("JPEG changed dimensions: %dx%d", back.W, back.H)
	}
	// Lossy but close on smooth content.
	var worst int
	for i := range im.Pix {
		d := int(im.Pix[i]) - int(back.Pix[i])
		if d < 0 {
			d = -d
		}
		if d > worst {
			worst = d
		}
	}
	if worst > 48 {
		t.Errorf("JPEG round trip worst-pixel error %d too high", worst)
	}
}

func TestEncodeDecodeBytesFormats(t *testing.T) {
	im := Synthesize(20, 20, KindFruit, stats.NewRNG(8))
	for _, f := range []Format{FormatJPEG, FormatPPM} {
		data, err := EncodeBytes(im, f)
		if err != nil {
			t.Fatalf("%v: %v", f, err)
		}
		back, err := DecodeBytes(data, f)
		if err != nil {
			t.Fatalf("%v: %v", f, err)
		}
		if back.W != 20 || back.H != 20 {
			t.Errorf("%v: bad dims", f)
		}
	}
	if _, err := EncodeBytes(im, Format(99)); err == nil {
		t.Error("unknown format encode should fail")
	}
	if _, err := DecodeBytes(nil, Format(99)); err == nil {
		t.Error("unknown format decode should fail")
	}
	if FormatJPEG.String() != "jpeg" || FormatPPM.String() != "ppm" {
		t.Error("format names wrong")
	}
}

func TestJPEGSmallerThanPPMOnSmoothContent(t *testing.T) {
	im := Synthesize(128, 128, KindLeaf, stats.NewRNG(9))
	j, err := EncodeBytes(im, FormatJPEG)
	if err != nil {
		t.Fatal(err)
	}
	p, err := EncodeBytes(im, FormatPPM)
	if err != nil {
		t.Fatal(err)
	}
	if len(j) >= len(p) {
		t.Errorf("JPEG (%d bytes) not smaller than PPM (%d bytes)", len(j), len(p))
	}
}
