package tensor

import (
	"math"

	"harvest/internal/quant"
)

// vec is the set of per-element bodies the forward runs, and Kernels
// names the register and vector bodies picked at init: "avx2" when the
// CPU has AVX2 and FMA and the OS saves the YMM registers (pickMicro's
// CPUID check), "go" otherwise.
var vec, Kernels = pickVec()

func pickVec() (vecBodies, string) {
	if hasAVX2FMA() {
		return vecAVX2, "avx2"
	}
	return vecGo, "go"
}

var vecAVX2 = vecBodies{addRowAVX2, geluRowAVX2, softmaxRowAVX2, q7QuantizeAVX2Body, q7DequantAVX2Body}

// vecK holds the constants the bodies in vec_amd64.s read as 8-lane
// memory operands, at the byte offsets the .s file names (32 per row).
// They are the named constants exp32 and geluRowGo use, so they convert
// to the same float32 bits.
var vecK = [...][8]uint32{
	splat(expLog2e), splat(expShift), splat(expLn2Hi), splat(expLn2Lo),
	splat(expP6), splat(expP5), splat(expP4), splat(expP3),
	splat(0.5), splat(1), splat(expMin), splat(expMax),
	splat(geluA), splat(geluB), splat(127),
	splatBits(127 - 0x4b400000 + 1<<32), // exp32's exponent rebias, as an int32 add
	splatBits(1<<31 - 1),                // |x| mask
}

func splat(v float32) [8]uint32 { return splatBits(math.Float32bits(v)) }

func splatBits(b uint32) [8]uint32 { return [8]uint32{b, b, b, b, b, b, b, b} }

// The assembly bodies below work on whole groups of eight values, at
// least one; the Go wrappers hand them the longest such prefix, run the
// Go body over the rest, and — since the assembly does no bounds checks
// — prove every access first, as microAVX2Body does.

//go:noescape
func addAVX2(dst, src *float32, n int)

//go:noescape
func geluAVX2(x *float32, n int)

//go:noescape
func scaleAVX2(x *float32, n int, s float32)

// minMaxAVX2 scans x as CalibrateQ7 and maxOf do, each lane starting
// from first: lo takes v when v < lo, hi when v > hi.
//
//go:noescape
func minMaxAVX2(x *float32, n int, first float32) (lo, hi float32)

// softmaxExpAVX2 is softmaxExp over n values without the final
// reciprocal: it returns the float64 running sum.
//
//go:noescape
func softmaxExpAVX2(row *float32, n int, maxv, scale float32) float64

//go:noescape
func q7QuantizeAVX2(dst *uint8, x *float32, n int, scale, zp float32)

// q7DequantAVX2 is q7DequantGo over mr full-width (16-column) tile rows;
// rows points at mr quant.Q7Params, read as {Scale float32, ZeroPoint
// int32}.
//
//go:noescape
func q7DequantAVX2(c *float32, ldc int, tile *int32, rows *quant.Q7Params, mr int, scales *float32, rowSum *int32, accumulate bool)

func addRowAVX2(row, bias []float32) {
	if n8 := len(bias) &^ 7; n8 > 0 {
		_ = row[n8-1]
		addAVX2(&row[0], &bias[0], n8)
		row, bias = row[n8:], bias[n8:]
	}
	addRowGo(row, bias)
}

func geluRowAVX2(row []float32) {
	if n8 := len(row) &^ 7; n8 > 0 {
		geluAVX2(&row[0], n8)
		row = row[n8:]
	}
	geluRowGo(row)
}

// softmaxRowAVX2 follows softmaxRowGo pass for pass. The prefix is a
// whole number of pairs, so softmaxExp continues the same pair sums.
func softmaxRowAVX2(row []float32, scale float32) {
	n8 := len(row) &^ 7
	if n8 == 0 {
		softmaxRowGo(row, scale)
		return
	}
	_, maxv := minMaxAVX2(&row[0], n8, row[0])
	maxv = maxOf(row[n8:], maxv)
	inv := softmaxExp(row[n8:], maxv, scale, softmaxExpAVX2(&row[0], n8, maxv, scale))
	scaleAVX2(&row[0], n8, inv)
	for j := n8; j < len(row); j++ {
		row[j] *= inv
	}
}

func q7QuantizeAVX2Body(dst []uint8, row []float32) quant.Q7Params {
	n8 := len(row) &^ 7
	if n8 == 0 {
		return q7QuantizeGo(dst, row)
	}
	_ = dst[len(row)-1]
	lo, hi := minMaxAVX2(&row[0], n8, row[0])
	for _, x := range row[n8:] {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	p := quant.Q7Range(lo, hi)
	q7QuantizeAVX2(&dst[0], &row[0], n8, p.Scale, float32(p.ZeroPoint))
	p.QuantizeInto(dst[n8:], row[n8:])
	return p
}

// q7DequantAVX2Body takes full-width tiles; an edge tile narrower than
// 16 columns goes to the Go body.
func q7DequantAVX2Body(c []float32, ldc int, tile *[gemmMR * gemmNR]int32, rows []quant.Q7Params, scales []float32, rowSum []int32, accumulate bool) {
	mr := len(rows)
	if len(scales) != gemmNR || mr == 0 {
		q7DequantGo(c, ldc, tile, rows, scales, rowSum, accumulate)
		return
	}
	_, _ = tile[mr*gemmNR-1], rowSum[gemmNR-1]
	_ = c[(mr-1)*ldc+gemmNR-1]
	q7DequantAVX2(&c[0], ldc, &tile[0], &rows[0], mr, &scales[0], &rowSum[0], accumulate)
}
