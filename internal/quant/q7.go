package quant

import (
	"fmt"
	"math"
)

// 7-bit quantization for the integer GEMM in internal/tensor.
//
// Activations use asymmetric unsigned 7-bit codes in [0, 127] (per-row
// scale + zero point); weights use symmetric signed 7-bit codes in
// [-63, 63] (per output channel). The amd64 kernel is VPMADDUBSW,
// which multiplies unsigned by signed bytes and adds adjacent products
// into a saturating int16: with these ranges a pair is at most
// 2·127·63 = 16002 < 2^15, so it never saturates and the integer
// product is exact. Restricting codes to 7 bits for that is the trade
// x86 int8 kernels make for pmaddubsw (e.g. onnxruntime's reduce_range
// mode).

// Q7Params maps x to unsigned 7-bit codes q = clamp(round(x/Scale) +
// ZeroPoint, 0, 127).
type Q7Params struct {
	Scale     float32
	ZeroPoint int32
}

// CalibrateQ7 derives asymmetric parameters mapping [min(xs), max(xs)]
// (widened to include zero, so padding and ReLU zeros are exact) onto
// [0, 127]. A constant slice spans zero after widening, so the
// degenerate hi==lo case means all-zero input: Scale 1 / ZeroPoint 0
// keeps quantization division-safe and round-trips zeros exactly.
func CalibrateQ7(xs []float32) (Q7Params, error) {
	if len(xs) == 0 {
		return Q7Params{}, fmt.Errorf("quant: calibrating empty tensor")
	}
	lo, hi := xs[0], xs[0]
	for _, x := range xs {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return Q7Range(lo, hi), nil
}

// Q7Range derives CalibrateQ7's parameters from a slice's smallest and
// largest values, for callers that scan the slice themselves.
func Q7Range(lo, hi float32) Q7Params {
	if lo > 0 {
		lo = 0
	}
	if hi < 0 {
		hi = 0
	}
	if hi == lo {
		return Q7Params{Scale: 1}
	}
	scale := (hi - lo) / 127
	zp := int32(math.Round(float64(-lo / scale)))
	if zp < 0 {
		zp = 0
	}
	if zp > 127 {
		zp = 127
	}
	return Q7Params{Scale: scale, ZeroPoint: zp}
}

// QuantizeInto writes the unsigned 7-bit codes of xs into dst without
// allocating; dst must hold len(xs) values.
func (p Q7Params) QuantizeInto(dst []uint8, xs []float32) {
	if len(dst) < len(xs) {
		panic(fmt.Sprintf("quant: Q7 QuantizeInto dst holds %d codes, want %d", len(dst), len(xs)))
	}
	for i, x := range xs {
		q := math.Round(float64(x/p.Scale)) + float64(p.ZeroPoint)
		if q < 0 {
			q = 0
		}
		if q > 127 {
			q = 127
		}
		dst[i] = uint8(q)
	}
}

// CalibrateQ7Sym returns the symmetric scale mapping [-maxAbs, maxAbs]
// onto [-63, 63] for a weight channel. An all-zero channel yields scale
// 1 (codes are all zero either way).
func CalibrateQ7Sym(xs []float32) float32 {
	var maxAbs float32
	for _, x := range xs {
		// |x| by clearing the sign bit: a branch on the sign of random
		// weights mispredicts every other element.
		a := math.Float32frombits(math.Float32bits(x) &^ (1 << 31))
		if a > maxAbs {
			maxAbs = a
		}
	}
	if maxAbs == 0 {
		return 1
	}
	return maxAbs / 63
}

// QuantizeQ7SymInto writes symmetric signed 7-bit codes q =
// clamp(round(x/scale), -63, 63) into dst; dst must hold len(xs)
// values.
func QuantizeQ7SymInto(dst []int8, xs []float32, scale float32) {
	if len(dst) < len(xs) {
		panic(fmt.Sprintf("quant: Q7 sym QuantizeInto dst holds %d codes, want %d", len(dst), len(xs)))
	}
	for i, x := range xs {
		q := math.Round(float64(x / scale))
		if q < -63 {
			q = -63
		}
		if q > 63 {
			q = 63
		}
		dst[i] = int8(q)
	}
}
