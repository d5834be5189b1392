package tensor

import (
	"math"

	"harvest/internal/cpufeat"
	"harvest/internal/quant"
)

// vec is the set of per-element bodies the forward runs, and Kernels
// names the register, tile and vector bodies picked at init (pickMicro's
// checks): "avx2" when the CPU has AVX2 and FMA and the OS saves the YMM
// registers; "avx2+avx512vnni" when the CPU also has AVX-512F and VNNI
// and the OS saves the ZMM registers, so that the float and int8 GEMMs
// run their 6×32 pair tiles and the bias add, GELU, softmax, LayerNorm
// and the quantizer's min/max their 16-lane bodies (vecAVX512);
// "avx2+avx512vnni+amx" when, beyond that, the int8 GEMM runs on the AMX
// tiles (cpufeat.AMXInt8: the CPU has them, the OS saves their state
// and the kernel granted it); "go" otherwise.
var vec, Kernels = pickVec(cpufeat.AVX512VNNI())

// pickVec returns the per-element bodies for this CPU and their Kernels
// name; avx512 false holds them to the 8-lane set.
func pickVec(avx512 bool) (vecBodies, string) {
	switch {
	case !cpufeat.AVX2FMA():
		return vecGo, "go"
	case avx512 && q7Block != nil:
		return vecAVX512, "avx2+avx512vnni+amx"
	case avx512:
		return vecAVX512, "avx2+avx512vnni"
	}
	return vecAVX2, "avx2"
}

var vecAVX2 = vecBodies{addRowAVX2, geluRowAVX2, softmaxRowsAVX2, layerNormGo, q7QuantizeAVX2Body,
	packTransAVX2Body, packTransHalfAVX2Body}

// vecAVX512 runs the bias add, GELU, softmax, LayerNorm and the
// quantizer's min/max on 16 lanes (the quantizer's codes and the B
// pack's transposes stay on their 8-lane bodies). The bodies hand a
// row's tail to the 8-lane ones, and softmax its last rows.
var vecAVX512 = vecBodies{addRowAVX512, geluRowAVX512, softmaxRowsAVX512, layerNormAVX512Body, q7QuantizeAVX512Body,
	packTransAVX2Body, packTransHalfAVX2Body}

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
	{0, 1, 2, 3, 4, 5, 6, 7},            // LayerNorm's row numbers
	// LayerNorm's transpose: the 128-bit lanes 0, 1 (PERMLO) or 2, 3
	// (PERMHI) of two VPERMT2PS tables, interleaved.
	{0, 1, 2, 3, 16, 17, 18, 19}, {4, 5, 6, 7, 20, 21, 22, 23},
	{8, 9, 10, 11, 24, 25, 26, 27}, {12, 13, 14, 15, 28, 29, 30, 31},
}

func splat(v float32) [8]uint32 { return splatBits(math.Float32bits(v)) }

func splatBits(b uint32) [8]uint32 { return [8]uint32{b, b, b, b, b, b, b, b} }

// The per-element assembly bodies below work on whole groups of eight
// (AVX2) or sixteen (AVX-512) values, at least one; the Go wrappers hand
// them the longest such prefix, run the narrower body over the rest,
// and — since the assembly does no bounds checks — prove every access
// first, as microAVX2Body does. The AVX-512 softmax and LayerNorm take
// whole groups of eight rows of any width and mask their last columns.

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
func addAVX512(dst, src *float32, n int)

//go:noescape
func geluAVX512(x *float32, n int)

//go:noescape
func minMaxAVX512(x *float32, n int, first float32) (lo, hi float32)

// softmaxAVX512x8 is softmaxRowGo over eight rows of n ≥ 1 values,
// ldc floats apart; sums gets each row's float64 sum.
//
//go:noescape
func softmaxAVX512x8(c *float32, ldc, n int, scale float32, sums *[8]float64)

// layerNormAVX512 is layerNormGo over groups·8 rows, eight at a time;
// stats gets the last group's float64 means and variances (Σd²/n), row
// r in lane r.
//
//go:noescape
func layerNormAVX512(dst, src *float32, groups, n, ld int, gamma, beta *float32, eps float32, stats *[2][8]float64)

//go:noescape
func q7QuantizeAVX2(dst *uint8, x *float32, n int, scale, zp float32)

// q7DequantAVX2 and q7DequantAVX512 are q7DequantGo over mr rows of 16
// and 32 columns, tile rows ldt values apart; rows points at mr
// quant.Q7Params, read as {Scale float32, ZeroPoint int32}.
//
//go:noescape
func q7DequantAVX2(c *float32, ldc int, tile *int32, ldt int, rows *quant.Q7Params, mr int, scales *float32, rowSum *int32, accumulate bool)

//go:noescape
func q7DequantAVX512(c *float32, ldc int, tile *int32, ldt int, rows *quant.Q7Params, mr int, scales *float32, rowSum *int32, accumulate bool)

// packTransAVX2 and packTransHalfAVX2 fill a whole 16-row strip from
// kc8 values of each row, ld elements apart, as 8×8 transposes: eight
// loads (widened to float32 for half words), three shuffle stages,
// eight stores.
//
//go:noescape
func packTransAVX2(dst, src *float32, ld, kc8 int)

//go:noescape
func packTransHalfAVX2(dst *float32, src *uint16, ld, kc8 int, bf16 bool)

// packPrefix returns how many of the strip's kc values per row the
// assembly packs — the whole groups of eight of a full-width strip —
// after proving its reads of src, which holds len values, and its
// writes of dst.
func packPrefix(dst []float32, srcLen, ld, w int) int {
	kc := len(dst) / gemmNR
	kc8 := kc &^ 7
	if w < gemmNR || kc8 == 0 {
		return 0
	}
	if ld < kc || srcLen < (gemmNR-1)*ld+kc {
		panic(shapeErrf("B pack: %d values at row stride %d for %d rows of %d", srcLen, ld, gemmNR, kc))
	}
	_ = dst[kc8*gemmNR-1]
	return kc8
}

func packTransAVX2Body(dst, src []float32, ld, w int) {
	if kc8 := packPrefix(dst, len(src), ld, w); kc8 > 0 {
		packTransAVX2(&dst[0], &src[0], ld, kc8)
		dst, src = dst[kc8*gemmNR:], src[kc8:]
	}
	packTransGo(dst, src, ld, w)
}

func packTransHalfAVX2Body(dst []float32, src []uint16, ld, w int, bf16 bool) {
	if kc8 := packPrefix(dst, len(src), ld, w); kc8 > 0 {
		packTransHalfAVX2(&dst[0], &src[0], ld, kc8, bf16)
		dst, src = dst[kc8*gemmNR:], src[kc8:]
	}
	packTransHalfGo(dst, src, ld, w, bf16)
}

func addRowAVX2(row, bias []float32) {
	if n8 := len(bias) &^ 7; n8 > 0 {
		_ = row[n8-1]
		addAVX2(&row[0], &bias[0], n8)
		row, bias = row[n8:], bias[n8:]
	}
	addRowGo(row, bias)
}

func addRowAVX512(row, bias []float32) {
	if n16 := len(bias) &^ 15; n16 > 0 {
		_ = row[n16-1]
		addAVX512(&row[0], &bias[0], n16)
		row, bias = row[n16:], bias[n16:]
	}
	addRowAVX2(row, bias)
}

func geluRowAVX2(row []float32) {
	if n8 := len(row) &^ 7; n8 > 0 {
		geluAVX2(&row[0], n8)
		row = row[n8:]
	}
	geluRowGo(row)
}

func geluRowAVX512(row []float32) {
	if n16 := len(row) &^ 15; n16 > 0 {
		geluAVX512(&row[0], n16)
		row = row[n16:]
	}
	geluRowAVX2(row)
}

func softmaxRowsAVX2(c []float32, ldc, m, n int, scale float32) {
	for i := range m {
		softmaxRowAVX2(c[i*ldc:][:n], scale)
	}
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

// softmaxRowsAVX512 runs the rows eight at a time on the assembly and
// the last m mod 8 on the 8-lane body.
func softmaxRowsAVX512(c []float32, ldc, m, n int, scale float32) {
	i := 0
	if n > 0 {
		var sums [8]float64
		for ; i+8 <= m; i += 8 {
			_ = c[(i+7)*ldc+n-1]
			softmaxAVX512x8(&c[i*ldc], ldc, n, scale, &sums)
		}
	}
	if i < m {
		softmaxRowsAVX2(c[i*ldc:], ldc, m-i, n, scale)
	}
}

// layerNormAVX512Body runs the whole groups of eight rows on the
// assembly and the rest on the Go body. The gathers of the last columns
// index rows by int32 offsets, so the assembly takes groups whose
// offsets fit.
func layerNormAVX512Body(dst, src []float32, m, n, ld int, gamma, beta []float32, eps float32) {
	if g := m / 8; g > 0 && n > 0 && 7*ld < 1<<31 {
		_, _, _, _ = src[(8*g-1)*ld+n-1], dst[8*g*n-1], gamma[n-1], beta[n-1]
		var stats [2][8]float64
		layerNormAVX512(&dst[0], &src[0], g, n, ld, &gamma[0], &beta[0], eps, &stats)
		if m -= 8 * g; m == 0 {
			return
		}
		dst, src = dst[8*g*n:], src[8*g*ld:]
	}
	layerNormGo(dst, src, m, n, ld, gamma, beta, eps)
}

// q7QuantizeAVX2Body and q7QuantizeAVX512Body calibrate a row as
// CalibrateQ7 does, from the min/max of their width, and write its codes
// on the 8-lane body.
func q7QuantizeAVX2Body(dst []uint8, row []float32) quant.Q7Params {
	return q7QuantizeAsm(dst, row, minMaxAVX2Row)
}

func q7QuantizeAVX512Body(dst []uint8, row []float32) quant.Q7Params {
	return q7QuantizeAsm(dst, row, minMaxAVX512Row)
}

func q7QuantizeAsm(dst []uint8, row []float32, minMax func([]float32) (lo, hi float32)) quant.Q7Params {
	n8 := len(row) &^ 7
	if n8 == 0 {
		return q7QuantizeGo(dst, row)
	}
	_ = dst[len(row)-1]
	p := quant.Q7Range(minMax(row))
	q7QuantizeAVX2(&dst[0], &row[0], n8, p.Scale, float32(p.ZeroPoint))
	p.QuantizeInto(dst[n8:], row[n8:])
	return p
}

// minMaxAVX2Row and minMaxAVX512Row return the least and greatest of a
// non-empty row as CalibrateQ7 scans it: both start at row[0], and the
// Go loop continues the assembly's result over the tail.
func minMaxAVX2Row(row []float32) (lo, hi float32) {
	n8 := len(row) &^ 7
	if n8 == 0 {
		return minMaxTail(row, row[0], row[0])
	}
	lo, hi = minMaxAVX2(&row[0], n8, row[0])
	return minMaxTail(row[n8:], lo, hi)
}

func minMaxAVX512Row(row []float32) (lo, hi float32) {
	n16 := len(row) &^ 15
	if n16 == 0 {
		return minMaxAVX2Row(row)
	}
	lo, hi = minMaxAVX512(&row[0], n16, row[0])
	return minMaxTail(row[n16:], lo, hi)
}

func minMaxTail(xs []float32, lo, hi float32) (float32, float32) {
	for _, x := range xs {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi
}

// q7DequantAVX2Body and q7DequantAVX512Body run the whole groups of 16
// and 32 columns of a dequantization on their assembly and hand the
// rest to the narrower body: the same operations on every element, so
// the same bits.
func q7DequantAVX2Body(c []float32, ldc int, tile []int32, ldt int, rows []quant.Q7Params, scales []float32, rowSum []int32, accumulate bool) {
	q7DequantAsm(q7DequantAVX2, gemmNR, q7DequantGo, c, ldc, tile, ldt, rows, scales, rowSum, accumulate)
}

func q7DequantAVX512Body(c []float32, ldc int, tile []int32, ldt int, rows []quant.Q7Params, scales []float32, rowSum []int32, accumulate bool) {
	q7DequantAsm(q7DequantAVX512, gemmPairNR, q7DequantAVX2Body, c, ldc, tile, ldt, rows, scales, rowSum, accumulate)
}

func q7DequantAsm(asm func(c *float32, ldc int, tile *int32, ldt int, rows *quant.Q7Params, mr int, scales *float32, rowSum *int32, accumulate bool),
	nr int, rest q7Dequant, c []float32, ldc int, tile []int32, ldt int, rows []quant.Q7Params, scales []float32, rowSum []int32, accumulate bool) {
	if n := q7DequantPrefix(c, ldc, tile, ldt, nr, rows, scales, rowSum); n > 0 {
		for j := 0; j < n; j += nr {
			asm(&c[j], ldc, &tile[j], ldt, &rows[0], len(rows), &scales[j], &rowSum[j], accumulate)
		}
		if n == len(scales) {
			return
		}
		c, tile, scales, rowSum = c[n:], tile[n:], scales[n:], rowSum[n:]
	}
	rest(c, ldc, tile, ldt, rows, scales, rowSum, accumulate)
}

// q7DequantPrefix returns how many of a dequantization's columns the
// assembly of width nr takes — its whole groups of nr — after proving
// the assembly's reads and writes of them.
func q7DequantPrefix(c []float32, ldc int, tile []int32, ldt, nr int, rows []quant.Q7Params, scales []float32, rowSum []int32) int {
	mr, n := len(rows), len(scales)&^(nr-1)
	if mr == 0 || n == 0 || ldt < n || ldc < n {
		return 0
	}
	_, _, _ = tile[(mr-1)*ldt+n-1], rowSum[n-1], c[(mr-1)*ldc+n-1]
	return n
}
