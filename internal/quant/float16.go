// Package quant implements the reduced-precision numeric formats the
// paper's inference engines rely on: IEEE-754 half precision (FP16),
// bfloat16 (BF16), and the 7-bit integer quantization the int8 backend
// runs (q7.go). The paper runs its engines in FP16 (V100, Jetson) and
// BF16 (A100); this package provides real software conversions so
// precision effects can be measured rather than assumed.
package quant

import (
	"fmt"
	"math"
)

// BytesPerValue reports storage cost per element for a precision name,
// used by the memory model. Recognized: fp32, fp16, bf16, int8.
func BytesPerValue(precision string) (int, error) {
	switch precision {
	case "fp32":
		return 4, nil
	case "fp16", "bf16":
		return 2, nil
	case "int8":
		return 1, nil
	}
	return 0, fmt.Errorf("quant: unknown precision %q", precision)
}

// Float16 is an IEEE-754 binary16 value stored in a uint16.
type Float16 uint16

// FromFloat32 converts a float32 to half precision with
// round-to-nearest-even, handling subnormals, infinities and NaN.
func FromFloat32(f float32) Float16 {
	bits := math.Float32bits(f)
	sign := uint16(bits>>16) & 0x8000
	exp := int32(bits>>23&0xFF) - 127 + 15
	mant := bits & 0x7FFFFF

	switch {
	case int32(bits>>23&0xFF) == 0xFF: // Inf / NaN
		if mant != 0 {
			return Float16(sign | 0x7E00) // quiet NaN
		}
		return Float16(sign | 0x7C00)
	case exp >= 0x1F: // overflow -> Inf
		return Float16(sign | 0x7C00)
	case exp <= 0: // subnormal or underflow
		if exp < -10 {
			return Float16(sign) // underflow to signed zero
		}
		mant |= 0x800000 // restore implicit bit
		shift := uint32(14 - exp)
		half := uint32(1) << (shift - 1)
		rounded := mant + half
		// round to nearest even
		if rounded&((half<<1)-1) == half && mant&(1<<shift) == 0 {
			rounded = mant
		}
		return Float16(sign | uint16(rounded>>shift))
	default:
		// normal: round mantissa from 23 to 10 bits, nearest-even.
		roundBit := uint32(1) << 12
		rounded := mant + (roundBit - 1) + (mant >> 13 & 1)
		if rounded&0x800000 != 0 { // mantissa overflowed into exponent
			rounded = 0
			exp++
			if exp >= 0x1F {
				return Float16(sign | 0x7C00)
			}
		}
		return Float16(sign | uint16(exp)<<10 | uint16(rounded>>13)&0x3FF)
	}
}

// Float32 converts the half-precision value back to float32 exactly.
func (h Float16) Float32() float32 {
	sign := uint32(h&0x8000) << 16
	exp := uint32(h >> 10 & 0x1F)
	mant := uint32(h & 0x3FF)
	switch {
	case exp == 0:
		if mant == 0 {
			return math.Float32frombits(sign)
		}
		// subnormal: normalize
		e := uint32(127 - 15 + 1)
		for mant&0x400 == 0 {
			mant <<= 1
			e--
		}
		mant &= 0x3FF
		return math.Float32frombits(sign | e<<23 | mant<<13)
	case exp == 0x1F:
		if mant == 0 {
			return math.Float32frombits(sign | 0x7F800000)
		}
		return math.Float32frombits(sign | 0x7FC00000 | mant<<13)
	default:
		return math.Float32frombits(sign | (exp+127-15)<<23 | mant<<13)
	}
}

// BFloat16 is a bfloat16 value (truncated float32) stored in a uint16.
type BFloat16 uint16

// BF16FromFloat32 converts with round-to-nearest-even on the dropped
// 16 mantissa bits, matching hardware behaviour on A100.
func BF16FromFloat32(f float32) BFloat16 {
	bits := math.Float32bits(f)
	if bits&0x7FFFFFFF > 0x7F800000 { // NaN: keep quiet
		return BFloat16(bits>>16 | 0x0040)
	}
	rounded := bits + 0x7FFF + (bits >> 16 & 1)
	return BFloat16(rounded >> 16)
}

// Float32 converts the bfloat16 back to float32 exactly.
func (b BFloat16) Float32() float32 {
	return math.Float32frombits(uint32(b) << 16)
}
