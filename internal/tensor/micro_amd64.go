package tensor

import "harvest/internal/cpufeat"

// micro, microPair, q7Strip and q7Pair are the register tiles every
// packed float and int8 GEMM runs, picked once at package init: the
// AVX2(/FMA) 6×16 bodies when the CPU has AVX2 and FMA and the OS saves
// the YMM registers, the Go bodies otherwise; and, when the CPU also has
// AVX-512F and VNNI and the OS saves the ZMM registers, the 6×32 float
// and int8 pair tiles (microPair is nil and q7Pair.nr 0 without them).
// The float bodies may differ from the Go body in the last bits (FMA
// rounds once per multiply-add); the two FMA tiles agree bit for bit,
// and so do the int8 bodies, which are exact.
var micro, microPair, q7Strip, q7Pair = pickMicro()

func pickMicro() (microKernel, microKernel, q7Body, q7Body) {
	switch {
	case !cpufeat.AVX2FMA():
		return microGo, nil, q7StripGo, q7Body{}
	case cpufeat.AVX512VNNI():
		return microAVX2Body, microPairAVX512Body, q7StripAVX2, q7PairVNNI
	}
	return microAVX2Body, nil, q7StripAVX2, q7Body{}
}

var (
	q7StripAVX2 = q7Body{q7MicroAVX2Body, q7DequantAVX2Body, gemmNR}
	q7PairVNNI  = q7Body{q7MicroVNNIBody, q7DequantAVX512Body, gemmPairNR}
)

// microAVX2 is the 6×16 kernel in micro_amd64.s: twelve ymm
// accumulators, VBROADCASTSS of A — six rows read in place, lda apart —
// against two 8-wide loads of the packed B strip, one VFMADD231PS each.
//
//go:noescape
func microAVX2(a *float32, lda int, b *float32, kc int, c *float32, ldc int)

func microAVX2Body(a []float32, lda int, bp []float32, kc int, c []float32, ldc int) {
	// The assembly does no bounds checks: prove every access here. Rows
	// at least kc apart keep every row's reads inside a.
	if kc < 1 || lda < kc || ldc < gemmNR {
		panic(shapeErrf("micro-kernel: kc=%d, lda=%d, ldc=%d", kc, lda, ldc))
	}
	_, _, _ = a[(gemmMR-1)*lda+kc-1], bp[gemmNR*kc-1], c[(gemmMR-1)*ldc+gemmNR-1]
	microAVX2(&a[0], lda, &bp[0], kc, &c[0], ldc)
}

// microPairAVX512 is the 6×32 kernel in micro_amd64.s over the two
// packed strips at b and b+16·kc: twelve zmm accumulators, VBROADCASTSS
// of A against one 16-wide load of each strip, one VFMADD231PS each.
//
//go:noescape
func microPairAVX512(a *float32, lda int, b *float32, kc int, c *float32, ldc int)

func microPairAVX512Body(a []float32, lda int, bp []float32, kc int, c []float32, ldc int) {
	if kc < 1 || lda < kc || ldc < gemmPairNR {
		panic(shapeErrf("pair micro-kernel: kc=%d, lda=%d, ldc=%d", kc, lda, ldc))
	}
	_, _, _ = a[(gemmMR-1)*lda+kc-1], bp[gemmPairNR*kc-1], c[(gemmMR-1)*ldc+gemmPairNR-1]
	microPairAVX512(&a[0], lda, &bp[0], kc, &c[0], ldc)
}

// q7MicroAVX2 is the 6×16 int8 kernel in micro_amd64.s: twelve ymm
// int32 accumulators; per row and k-group a VPBROADCASTD of the row's
// four codes, VPMADDUBSW against the strip's two 32-byte lines, VPMADDWD
// by ones and VPADDD. c's rows are 16 values apart.
//
//go:noescape
func q7MicroAVX2(a *uint8, lda int, b *uint8, kg int, c *int32)

func q7MicroAVX2Body(a []uint8, lda int, b []uint8, kg int, c *q7Tile) {
	_, _ = a[(gemmMR-1)*lda+4*kg-1], b[4*gemmNR*kg-1]
	q7MicroAVX2(&a[0], lda, &b[0], kg, &c[0])
}

// q7MicroVNNI is the 6×32 int8 kernel in micro_amd64.s, over the two
// weight strips at b and b+64·kg: twelve zmm int32 accumulators; per row
// and k-group a VPBROADCASTD of the row's four codes and one VPDPBUSD
// against each strip's 64-byte line. c's rows are 32 values apart.
//
//go:noescape
func q7MicroVNNI(a *uint8, lda int, b *uint8, kg int, c *int32)

func q7MicroVNNIBody(a []uint8, lda int, b []uint8, kg int, c *q7Tile) {
	_, _ = a[(gemmMR-1)*lda+4*kg-1], b[4*gemmPairNR*kg-1]
	q7MicroVNNI(&a[0], lda, &b[0], kg, &c[0])
}
