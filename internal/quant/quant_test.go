package quant

import (
	"math"
	"testing"
	"testing/quick"
)

func TestFloat16KnownEncodings(t *testing.T) {
	cases := []struct {
		f    float32
		bits Float16
	}{
		{0, 0x0000},
		{1, 0x3C00},
		{-1, 0xBC00},
		{2, 0x4000},
		{0.5, 0x3800},
		{65504, 0x7BFF},        // max normal half
		{5.9604645e-8, 0x0001}, // smallest subnormal
		{6.1035156e-5, 0x0400}, // smallest normal
		{float32(math.Inf(1)), 0x7C00},
		{float32(math.Inf(-1)), 0xFC00},
	}
	for _, c := range cases {
		if got := FromFloat32(c.f); got != c.bits {
			t.Errorf("FromFloat32(%v) = %#04x, want %#04x", c.f, uint16(got), uint16(c.bits))
		}
	}
}

func TestFloat16RoundTripExact(t *testing.T) {
	// All half-precision values must round-trip exactly.
	vals := []float32{0, -0, 1, -1, 0.5, 0.25, 1.5, 2048, 65504, 6.1035156e-5, 5.9604645e-8}
	for _, v := range vals {
		h := FromFloat32(v)
		back := h.Float32()
		if back != v {
			t.Errorf("round trip %v -> %#04x -> %v", v, uint16(h), back)
		}
	}
}

func TestFloat16Overflow(t *testing.T) {
	if got := FromFloat32(1e6); got != 0x7C00 {
		t.Errorf("overflow = %#04x, want +Inf (0x7C00)", uint16(got))
	}
	if got := FromFloat32(-1e6); got != 0xFC00 {
		t.Errorf("negative overflow = %#04x, want -Inf", uint16(got))
	}
	if got := FromFloat32(1e-10); got != 0 {
		t.Errorf("underflow = %#04x, want 0", uint16(got))
	}
}

func TestFloat16NaN(t *testing.T) {
	h := FromFloat32(float32(math.NaN()))
	if !math.IsNaN(float64(h.Float32())) {
		t.Error("NaN did not survive fp16 round trip")
	}
}

func TestFloat16RelativeErrorBound(t *testing.T) {
	// Property: for normal-range inputs, round trip error <= 2^-11
	// relative (half has 10 mantissa bits + round-to-nearest).
	f := func(raw float32) bool {
		x := raw
		if math.IsNaN(float64(x)) || math.IsInf(float64(x), 0) {
			return true
		}
		ax := math.Abs(float64(x))
		if ax > 60000 || (ax < 6.2e-5 && ax != 0) {
			return true // outside half's normal range
		}
		back := float64(FromFloat32(x).Float32())
		if x == 0 {
			return back == 0
		}
		return math.Abs(back-float64(x)) <= math.Abs(float64(x))*(1.0/2048)+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestFloat16RoundToNearestEven(t *testing.T) {
	// 1 + 2^-11 is exactly halfway between 1.0 and the next half value
	// 1+2^-10; nearest-even rounds down to 1.0.
	x := float32(1 + 1.0/2048)
	if got := FromFloat32(x); got != 0x3C00 {
		t.Errorf("halfway case rounded to %#04x, want 0x3C00", uint16(got))
	}
	// 1 + 3*2^-11 is halfway between 1+2^-10 and 1+2^-9; even is
	// 1+2^-9 (mantissa 0b10).
	y := float32(1 + 3.0/2048)
	if got := FromFloat32(y); got != 0x3C02 {
		t.Errorf("halfway case rounded to %#04x, want 0x3C02", uint16(got))
	}
}

func TestBF16KnownAndRoundTrip(t *testing.T) {
	if got := BF16FromFloat32(1); got.Float32() != 1 {
		t.Errorf("bf16(1) -> %v", got.Float32())
	}
	if got := BF16FromFloat32(-2.5); got.Float32() != -2.5 {
		t.Errorf("bf16(-2.5) -> %v", got.Float32())
	}
	// BF16 keeps float32's exponent range: no overflow at 1e38.
	if got := BF16FromFloat32(1e38); math.IsInf(float64(got.Float32()), 0) {
		t.Error("bf16 overflowed inside float32 range")
	}
	if !math.IsNaN(float64(BF16FromFloat32(float32(math.NaN())).Float32())) {
		t.Error("bf16 NaN lost")
	}
}

func TestBF16RelativeErrorBound(t *testing.T) {
	f := func(x float32) bool {
		if math.IsNaN(float64(x)) || math.IsInf(float64(x), 0) {
			return true
		}
		if math.Abs(float64(x)) > 3.38e38 {
			// Near float32 max, round-to-nearest legitimately
			// overflows bf16 to infinity (hardware does the same).
			return true
		}
		back := float64(BF16FromFloat32(x).Float32())
		if x == 0 {
			return back == 0
		}
		// 7 mantissa bits -> 2^-8 relative with rounding.
		return math.Abs(back-float64(x)) <= math.Abs(float64(x))/256+1e-45
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// The int8 precision's activations are quantized by CalibrateQ7 and
// QuantizeInto (q7.go); the tests below hold that quantizer to the
// bounds an int8 round trip must meet. roundTripQ7 maps each code back
// to (q - ZeroPoint) * Scale.
func roundTripQ7(p Q7Params, xs []float32) []float32 {
	qs := make([]uint8, len(xs))
	p.QuantizeInto(qs, xs)
	back := make([]float32, len(xs))
	for i, q := range qs {
		back[i] = float32(int32(q)-p.ZeroPoint) * p.Scale
	}
	return back
}

func TestCalibrateInt8Errors(t *testing.T) {
	if _, err := CalibrateQ7(nil); err == nil {
		t.Error("calibrating empty tensor should fail")
	}
}

func TestInt8RoundTripBound(t *testing.T) {
	xs := []float32{-1, -0.5, 0, 0.25, 0.9, 1.2}
	p, err := CalibrateQ7(xs)
	if err != nil {
		t.Fatal(err)
	}
	back := roundTripQ7(p, xs)
	for i := range xs {
		if math.Abs(float64(back[i]-xs[i])) > float64(p.Scale/2)+1e-6 {
			t.Errorf("int8 error at %d: %v -> %v (max %v)", i, xs[i], back[i], p.Scale/2)
		}
	}
}

func TestInt8ZeroExact(t *testing.T) {
	// Zero must be exactly representable (padding/ReLU preservation).
	xs := []float32{0.1, 0.9, 3.3}
	p, err := CalibrateQ7(xs)
	if err != nil {
		t.Fatal(err)
	}
	if back := roundTripQ7(p, []float32{0}); back[0] != 0 {
		t.Errorf("zero reconstructed as %v", back[0])
	}
}

func TestInt8ConstantTensor(t *testing.T) {
	p, err := CalibrateQ7([]float32{5, 5, 5})
	if err != nil {
		t.Fatal(err)
	}
	back := roundTripQ7(p, []float32{5})
	if math.Abs(float64(back[0]-5)) > float64(p.Scale/2)+1e-6 {
		t.Errorf("constant tensor reconstructed as %v", back[0])
	}
}

func TestInt8QuickBound(t *testing.T) {
	f := func(raw []float32) bool {
		xs := raw[:0]
		for _, v := range raw {
			if !math.IsNaN(float64(v)) && !math.IsInf(float64(v), 0) && math.Abs(float64(v)) < 1e6 {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		p, err := CalibrateQ7(xs)
		if err != nil {
			return false
		}
		back := roundTripQ7(p, xs)
		for i := range xs {
			if math.Abs(float64(back[i]-xs[i])) > float64(p.Scale/2)*1.01+1e-5 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestBytesPerValue(t *testing.T) {
	cases := map[string]int{"fp32": 4, "fp16": 2, "bf16": 2, "int8": 1}
	for name, want := range cases {
		got, err := BytesPerValue(name)
		if err != nil || got != want {
			t.Errorf("BytesPerValue(%s) = %d, %v", name, got, err)
		}
	}
	if _, err := BytesPerValue("fp8"); err == nil {
		t.Error("unknown precision should error")
	}
}
