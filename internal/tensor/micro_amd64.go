package tensor

import "harvest/internal/cpufeat"

// micro, microPair, q7Strip, q7Pair and q7Block are the tiles every
// packed float and int8 GEMM runs, picked once at package init: the
// AVX2(/FMA) 6×16 bodies when the CPU has AVX2 and FMA and the OS saves
// the YMM registers, the Go bodies otherwise; when the CPU also has
// AVX-512F and VNNI and the OS saves the ZMM registers, the 6×32 float
// and int8 pair tiles (microPair is nil and q7Pair.nr 0 without them);
// and when, beyond that, cpufeat.AMXInt8 holds — AMX-TILE and AMX-INT8,
// the OS saves the tile state and the kernel granted it — the int8 AMX
// block body (q7Block is nil without it). The float bodies may differ
// from the Go body in the last bits (FMA rounds once per multiply-add);
// the two FMA tiles agree bit for bit, and so do the int8 bodies, which
// are exact.
var micro, microPair, q7Strip, q7Pair, q7Block = pickMicro()

func pickMicro() (microKernel, microKernel, q7Body, q7Body, q7BlockKernel) {
	switch {
	case !cpufeat.AVX2FMA():
		return microGo, nil, q7StripGo, q7Body{}, nil
	case cpufeat.AVX512VNNI() && cpufeat.AMXInt8():
		return microAVX2Body, microPairAVX512Body, q7StripAVX2, q7PairVNNI, q7AMXBody
	case cpufeat.AVX512VNNI():
		return microAVX2Body, microPairAVX512Body, q7StripAVX2, q7PairVNNI, nil
	}
	return microAVX2Body, nil, q7StripAVX2, q7Body{}, nil
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

// amxConfig is LDTILECFG's 64-byte operand in palette 1: each tile's
// bytes per row and rows.
type amxConfig struct {
	palette, startRow uint8
	_                 [14]uint8
	colsb             [16]uint16
	rows              [16]uint8
}

// q7AMXConfig shapes the tiles of q7AMXTiles for K blocks of kg ≤ 16
// groups: tmm0-tmm3 16×16 int32 C tiles, tmm4 and tmm5 16-row A tiles
// of 4·kg codes a row, tmm6 and tmm7 B tiles of kg rows of 16 columns'
// four codes — a strip's kg groups as they lie.
func q7AMXConfig(kg int) amxConfig {
	c := amxConfig{palette: 1}
	for t := range 8 {
		c.colsb[t], c.rows[t] = 64, 16
	}
	c.colsb[4], c.colsb[5] = uint16(4*kg), uint16(4*kg)
	c.rows[6], c.rows[7] = uint8(kg), uint8(kg)
	return c
}

// q7AMXTiles is the AMX int8 body in micro_amd64.s: per pair of 16-row
// A tiles and pair of weight strips, 2×2 int32 C tiles of TDPBUSD over
// the K blocks, stored into c. It loads the tile config at cfg once and
// releases the tiles before it returns: Go never preempts assembly
// asynchronously, so no tile state outlives the call or follows its
// goroutine to another thread.
//
//go:noescape
func q7AMXTiles(cfg *amxConfig, a *uint8, lda int, b *uint8, ldb, ka, blocks int, c *int32, ldc, mt, nt int, load bool)

// amxPalette reads the calling thread's tile config back
// (STTILECFG) and returns its palette: 0 once the tiles are released.
// Tests use it to see that no tile state outlives a call.
func amxPalette() uint8

// q7AMXBody is the AMX q7BlockKernel. The whole 16-group K blocks run on
// one tile config; a K tail of fewer groups runs on a second, shaped to
// its width, which adds to the blocks' sums in c.
func q7AMXBody(a []uint8, lda int, b []uint8, kg int, c []int32, ldc, mt, nt int) {
	// The assembly does no bounds checks: prove every access here.
	if mt < 1 || nt < 1 || kg < 1 || lda < 4*kg || ldc < 16*nt {
		panic(shapeErrf("AMX tiles: mt=%d, nt=%d, kg=%d, lda=%d, ldc=%d", mt, nt, kg, lda, ldc))
	}
	_, _, _ = a[(16*mt-1)*lda+4*kg-1], b[nt*64*kg-1], c[(16*mt-1)*ldc+16*nt-1]
	blocks, tail := kg/16, kg%16
	if blocks > 0 {
		cfg := q7AMXConfig(16)
		q7AMXTiles(&cfg, &a[0], lda, &b[0], 64*kg, 64, blocks, &c[0], 4*ldc, mt, nt, false)
	}
	if tail > 0 {
		cfg := q7AMXConfig(tail)
		q7AMXTiles(&cfg, &a[64*blocks], lda, &b[1024*blocks], 64*kg, 4*tail, 1, &c[0], 4*ldc, mt, nt, blocks > 0)
	}
}
