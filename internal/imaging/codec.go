package imaging

import (
	"bufio"
	"bytes"
	"fmt"
	"image"
	"image/jpeg"
	"io"
	"strings"
)

// EncodePPM writes the image as binary PPM (P6). PPM stands in for the
// uncompressed/TIFF-like formats some HARVEST datasets use; its decode
// cost is memory-bandwidth bound, unlike JPEG's compute-bound decode,
// reproducing the per-dataset preprocessing variance of Fig. 7.
func EncodePPM(w io.Writer, im *Image) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "P6\n%d %d\n255\n", im.W, im.H); err != nil {
		return err
	}
	if _, err := bw.Write(im.Pix); err != nil {
		return err
	}
	return bw.Flush()
}

// maxPixels bounds the raster a decoded header may claim (256 Mpixel,
// 768 MB of RGB).
const maxPixels = 1 << 28

// parsePPMHeader scans a binary PPM header from an in-memory slice
// without fmt/bufio (and therefore without allocating), returning the
// dimensions and the offset of the pixel payload, which it has checked
// data holds: a short input is refused before anything is allocated
// for the raster it claims.
func parsePPMHeader(data []byte) (w, h, off int, err error) {
	pos := 0
	skipSpace := func() {
		for pos < len(data) && (data[pos] == ' ' || data[pos] == '\t' ||
			data[pos] == '\n' || data[pos] == '\r') {
			pos++
		}
	}
	readInt := func() (int, bool) {
		skipSpace()
		start, n := pos, 0
		for pos < len(data) && data[pos] >= '0' && data[pos] <= '9' {
			n = n*10 + int(data[pos]-'0')
			pos++
			if n > 1<<30 {
				return 0, false
			}
		}
		return n, pos > start
	}
	skipSpace()
	if pos+2 > len(data) || data[pos] != 'P' || data[pos+1] != '6' {
		return 0, 0, 0, fmt.Errorf("imaging: bad ppm header: missing P6 magic")
	}
	pos += 2
	w, okW := readInt()
	h, okH := readInt()
	maxv, okM := readInt()
	if !okW || !okH || !okM {
		return 0, 0, 0, fmt.Errorf("imaging: bad ppm header: truncated dimensions")
	}
	if w <= 0 || h <= 0 || w*h > maxPixels {
		return 0, 0, 0, fmt.Errorf("imaging: unreasonable ppm dimensions %dx%d", w, h)
	}
	if maxv != 255 {
		return 0, 0, 0, fmt.Errorf("imaging: unsupported maxval %d", maxv)
	}
	pos++ // single whitespace after maxval
	if n := w * h * Channels; len(data)-pos < n {
		return 0, 0, 0, fmt.Errorf("imaging: short ppm pixel data: have %d bytes, want %d",
			max(len(data)-pos, 0), n)
	}
	return w, h, pos, nil
}

// decodePPMInto decodes a binary PPM (P6), reusing dst's pixel buffer
// when it is large enough: decoding a raw frame into a warm buffer then
// performs no allocations.
func decodePPMInto(data []byte, dst *Image) (*Image, error) {
	w, h, off, err := parsePPMHeader(data)
	if err != nil {
		return nil, err
	}
	im := ReuseImage(dst, w, h)
	copy(im.Pix, data[off:])
	return im, nil
}

// DecodePPMZeroCopy decodes a raw PPM without copying the pixel
// payload: the returned Image aliases data, which the caller must keep
// alive and unmodified while the image is in use. hdr, when non-nil,
// is reused as the returned Image header. For multi-megapixel raw
// frames this skips the single largest cost of decoding — the payload
// memcpy.
func DecodePPMZeroCopy(data []byte, hdr *Image) (*Image, error) {
	w, h, off, err := parsePPMHeader(data)
	if err != nil {
		return nil, err
	}
	n := w * h * Channels
	if hdr == nil {
		hdr = &Image{}
	}
	hdr.W, hdr.H, hdr.Pix = w, h, data[off:off+n:off+n]
	return hdr, nil
}

// EncodeJPEG compresses the image with the standard library encoder at
// the given quality (1..100).
func EncodeJPEG(w io.Writer, im *Image, quality int) error {
	rgba := image.NewRGBA(image.Rect(0, 0, im.W, im.H))
	for y := 0; y < im.H; y++ {
		for x := 0; x < im.W; x++ {
			si := (y*im.W + x) * Channels
			di := y*rgba.Stride + x*4
			rgba.Pix[di] = im.Pix[si]
			rgba.Pix[di+1] = im.Pix[si+1]
			rgba.Pix[di+2] = im.Pix[si+2]
			rgba.Pix[di+3] = 255
		}
	}
	return jpeg.Encode(w, rgba, &jpeg.Options{Quality: quality})
}

// decodeJPEGInto decodes a JPEG, converting into dst's reused pixel
// buffer when it is large enough. The stdlib decoder still allocates
// its own planes internally; reuse here saves the final RGB raster.
func decodeJPEGInto(data []byte, dst *Image) (*Image, error) {
	cfg, err := jpeg.DecodeConfig(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("imaging: jpeg decode: %w", err)
	}
	// The decoder allocates the raster the header claims before it reads
	// the scan. A Huffman-coded scan spends at least one bit on each 8x8
	// block of a component, so fewer than blocks/8 bytes cannot hold the
	// image: refuse those and oversized claims before that allocation.
	blocks := ((cfg.Width + 7) / 8) * ((cfg.Height + 7) / 8)
	if cfg.Width*cfg.Height > maxPixels || len(data) < blocks/8 {
		return nil, fmt.Errorf("imaging: unreasonable jpeg dimensions %dx%d for %d bytes",
			cfg.Width, cfg.Height, len(data))
	}
	src, err := jpeg.Decode(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("imaging: jpeg decode: %w", err)
	}
	b := src.Bounds()
	if b.Empty() {
		return nil, fmt.Errorf("imaging: jpeg decode: empty %dx%d image", b.Dx(), b.Dy())
	}
	im := ReuseImage(dst, b.Dx(), b.Dy())
	for y := 0; y < im.H; y++ {
		for x := 0; x < im.W; x++ {
			r16, g16, b16, _ := src.At(b.Min.X+x, b.Min.Y+y).RGBA()
			im.Set(x, y, uint8(r16>>8), uint8(g16>>8), uint8(b16>>8))
		}
	}
	return im, nil
}

// Format identifies the on-disk encoding of a dataset's images.
type Format int

// Supported storage formats.
const (
	// FormatJPEG is compute-bound to decode (DCT + Huffman).
	FormatJPEG Format = iota
	// FormatPPM (raw) is bandwidth-bound to decode.
	FormatPPM
)

// ParseFormat maps a wire name to a Format. The empty string means
// JPEG, the dominant encoding of the paper's datasets.
func ParseFormat(s string) (Format, error) {
	switch strings.ToLower(s) {
	case "", "jpeg", "jpg":
		return FormatJPEG, nil
	case "ppm", "raw":
		return FormatPPM, nil
	}
	return FormatJPEG, fmt.Errorf("imaging: unknown format %q", s)
}

// String names the format.
func (f Format) String() string {
	switch f {
	case FormatJPEG:
		return "jpeg"
	case FormatPPM:
		return "ppm"
	}
	return fmt.Sprintf("Format(%d)", int(f))
}

// EncodeBytes serializes the image in the given format.
func EncodeBytes(im *Image, f Format) ([]byte, error) {
	var buf bytes.Buffer
	switch f {
	case FormatJPEG:
		if err := EncodeJPEG(&buf, im, 85); err != nil {
			return nil, err
		}
	case FormatPPM:
		if err := EncodePPM(&buf, im); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("imaging: unknown format %v", f)
	}
	return buf.Bytes(), nil
}

// DecodeBytes deserializes an image encoded by EncodeBytes.
func DecodeBytes(data []byte, f Format) (*Image, error) {
	return DecodeBytesInto(data, f, nil)
}

// DecodeBytesInto decodes like DecodeBytes but reuses dst's pixel
// buffer when possible (dst may be nil). The returned image aliases
// dst's storage when it was large enough; the caller must treat dst as
// invalid afterwards and use the returned image.
func DecodeBytesInto(data []byte, f Format, dst *Image) (*Image, error) {
	switch f {
	case FormatJPEG:
		return decodeJPEGInto(data, dst)
	case FormatPPM:
		return decodePPMInto(data, dst)
	}
	return nil, fmt.Errorf("imaging: unknown format %v", f)
}
