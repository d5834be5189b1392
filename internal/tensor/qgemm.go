package tensor

import "harvest/internal/quant"

// Quantized GEMM over 7-bit codes, on the float GEMM's 6-row strips and
// row bands.
//
// Activations are unsigned codes in [0, 127], weights signed codes in
// [-63, 63], both grouped four at a time along K. Per A row and k-group
// the AVX2 kernel broadcasts the row's four codes, VPMADDUBSW multiplies
// them against sixteen columns' four codes and adds adjacent products
// into int16 (at most 2·127·63 = 16002 < 2¹⁵, so it never saturates),
// VPMADDWD by ones folds each column's two pairs into int32, and VPADDD
// accumulates. On an AVX-512 VNNI host a wider tile runs over two
// adjacent weight strips at once: VPDPBUSD adds each column's four
// u8×s8 products straight into int32. On a host with AMX-INT8 a whole
// MC block runs on the tile unit instead: TDPBUSD multiplies 16 rows by
// a 64-code K block of one strip — the strip's 16 groups as they lie are
// a B tile — into a 16×16 int32 tile. Every step of every body is
// exact, so all return the true integer dot products for any K below
// 2³¹/(127·63) ≈ 268k, and the logits do not depend on which ran.

// PackedQ7 is a matrix of 7-bit codes in 4-code groups along K, K
// padded to Kp whole groups. Activations are rows of 4·Kp bytes, with
// rows added up to a whole 6-row strip; their pad bytes are don't-care,
// since they only meet zero weight codes or feed discarded rows.
// Weights are 16-row strips holding, per group, the 16 rows' four codes
// (64 bytes), padded with zero codes along K and up to a whole strip;
// their bytes are int8 bit patterns, and RowSum holds each row's code
// sum for the activation zero-point correction.
type PackedQ7 struct {
	Rows    int
	K       int
	Kp      int // 4-code groups per row = ceil(K/4)
	Data    []uint8
	RowSum  []int32 // weights only
	weights bool
}

// q7Tile holds one int8 tile's int32 sums, rows as many columns apart
// as the tile is wide: 16 or gemmPairNR.
type q7Tile [gemmMR * gemmPairNR]int32

// q7Body is one int8 register tile nr columns wide (nr/16 adjacent
// weight strips): a kernel computing the 6×nr int32 product of a
// kg-group A strip (six rows of codes, row stride lda bytes) and the
// strips into c, overwriting it, and the dequantization of that tile.
type q7Body struct {
	micro   func(a []uint8, lda int, b []uint8, kg int, c *q7Tile)
	dequant q7Dequant
	nr      int
}

// q7Dequant writes the len(rows)×len(scales) corner of an int32 tile
// (row stride ldt) into c (row stride ldc) as rows[r].Scale·scales[j]·
// (raw − ZeroPoint·rowSum[j]), added to c's old value when accumulate.
type q7Dequant func(c []float32, ldc int, tile []int32, ldt int, rows []quant.Q7Params, scales []float32, rowSum []int32, accumulate bool)

// q7BlockKernel computes the int32 product of mt 16-row tiles of A codes
// (rows lda bytes apart, kg groups each) and nt adjacent weight strips
// at b into c (rows ldc apart, 16·nt columns), overwriting it.
type q7BlockKernel func(a []uint8, lda int, b []uint8, kg int, c []int32, ldc, mt, nt int)

// q7TileRows is the height of an AMX tile, and q7BlockNC the columns
// one q7Block call covers (two tiles of rows by q7BlockNC columns,
// 32 KiB of int32 in the worker's buffer).
const (
	q7TileRows = 16
	q7BlockNC  = 256
)

// q7StripGo is the portable 6×16 int8 tile.
var q7StripGo = q7Body{q7MicroGo, q7DequantGo, gemmNR}

// q7MicroGo is the portable body of the 6×16 int8 micro-kernel.
func q7MicroGo(a []uint8, lda int, b []uint8, kg int, c *q7Tile) {
	clear(c[:gemmMR*gemmNR])
	for g := 0; g < kg; g++ {
		bg := (*[4 * gemmNR]uint8)(b[g*4*gemmNR:])
		for r := 0; r < gemmMR; r++ {
			ar := (*[4]uint8)(a[r*lda+4*g:])
			a0, a1, a2, a3 := int32(ar[0]), int32(ar[1]), int32(ar[2]), int32(ar[3])
			row := (*[gemmNR]int32)(c[r*gemmNR:])
			for j := range row {
				bj := (*[4]uint8)(bg[4*j:])
				row[j] += a0*int32(int8(bj[0])) + a1*int32(int8(bj[1])) + a2*int32(int8(bj[2])) + a3*int32(int8(bj[3]))
			}
		}
	}
}

func q7Groups(k int) int { return (k + 3) / 4 }

func roundUp(x, to int) int { return (x + to - 1) / to * to }

// PackQ7Acts packs unsigned activation codes (rows×k row-major, each in
// [0,127]).
func PackQ7Acts(codes []uint8, rows, k int) *PackedQ7 {
	p := &PackedQ7{}
	PackQ7ActsInto(p, codes, rows, k)
	return p
}

// PackQ7ActsInto packs into an existing PackedQ7, reusing its storage
// when large enough.
func PackQ7ActsInto(p *PackedQ7, codes []uint8, rows, k int) {
	if len(codes) < rows*k {
		panic(shapeErrf("PackQ7Acts codes have %d values, want %d", len(codes), rows*k))
	}
	p.Rows, p.K, p.Kp, p.weights = rows, k, q7Groups(k), false
	lda := 4 * p.Kp
	p.Data = Grow(&p.Data, roundUp(rows, gemmMR)*lda)
	for r := 0; r < rows; r++ {
		copy(p.Data[r*lda:], codes[r*k:r*k+k])
	}
}

// PackQ7Weights packs signed weight codes (rows×k row-major, each in
// [-63,63]) into 16-row strips and records each row's code sum.
func PackQ7Weights(codes []int8, rows, k int) *PackedQ7 {
	if len(codes) < rows*k {
		panic(shapeErrf("PackQ7Weights codes have %d values, want %d", len(codes), rows*k))
	}
	kp := q7Groups(k)
	p := &PackedQ7{Rows: rows, K: k, Kp: kp, weights: true,
		Data:   make([]uint8, roundUp(rows, gemmNR)*4*kp),
		RowSum: make([]int32, rows),
	}
	for r := 0; r < rows; r++ {
		// Row r is column r%16 of strip r/16.
		s := p.Data[(r/gemmNR*gemmNR*kp+r%gemmNR)*4:]
		for i, c := range codes[r*k : r*k+k] {
			s[i/4*4*gemmNR+i%4] = uint8(c)
			p.RowSum[r] += int32(c)
		}
	}
	return p
}

// Q7GemmTransB computes the exact integer product c[i*n+j] =
// Σ_k acts[i,k]·weights[j,k] into int32. It is the quantized analogue
// of GemmTransBInto and runs on the same row bands.
func Q7GemmTransB(c []int32, acts, weights *PackedQ7) {
	if acts.weights || !weights.weights {
		panic(shapeErrf("Q7GemmTransB wants packed acts and packed weights"))
	}
	if acts.K != weights.K {
		panic(shapeErrf("Q7GemmTransB inner dimension mismatch: k=%d vs k=%d", acts.K, weights.K))
	}
	m, n := acts.Rows, weights.Rows
	if len(c) < m*n {
		panic(shapeErrf("Q7GemmTransB output has %d values, want %d", len(c), m*n))
	}
	g := gemm{ci: c, qa: acts, qw: weights, ldc: n, m: m, n: n, k: acts.K}
	g.run()
}

// Q7LinearEpilogue computes dst (m×n) = x (m×k)·Wᵀ — or dst += x·Wᵀ
// when accumulate — through the int8 pipeline, for the n packed weight
// rows w with per-row scales, then applies epi to each finished row.
// Each parallel row band quantizes its rows of x per row (asymmetric,
// quant.CalibrateQ7) straight into its worker's A strips, runs the
// exact integer product, and dequantizes each tile as
// sa·scales[j]·(Σqa·qw − za·Σqw).
func Q7LinearEpilogue(dst, x []float32, m, k int, w *PackedQ7, scales []float32, accumulate bool, epi Epilogue) {
	n := w.Rows
	if !w.weights || w.K != k || len(x) < m*k || len(dst) < m*n || len(scales) < n {
		panic(shapeErrf("Q7LinearEpilogue: x %d, dst %d, %d scales for m=%d k=%d and %d×%d weights",
			len(x), len(dst), len(scales), m, k, n, w.K))
	}
	g := gemm{c: dst, a: x, qw: w, scales: scales, ldc: n, lda: k, m: m, n: n, k: k,
		zero: !accumulate, epi: epi}
	g.run()
}

// q7Band computes rows [rowLo,rowHi) of an int8 product. For each MC
// block of rows it takes the A codes (q7Codes); then, where the host has
// a block body, runs the block on it (q7BlockRun), and elsewhere sweeps
// the weight strips, kept in L1, across the block's A strips — two at a
// time on the pair tile where the host has one, an odd last strip and
// every strip elsewhere on the 6×16 tile — and writes every tile out,
// raw or dequantized.
func (g *gemm) q7Band(wk *worker, rowLo, rowHi int) {
	lda := 4 * g.qw.Kp
	for ic := rowLo; ic < rowHi; ic += gemmMC {
		mc := min(gemmMC, rowHi-ic)
		if q7Block != nil {
			g.q7BlockRun(wk, g.q7Codes(wk, ic, mc, q7TileRows), ic, mc)
			continue
		}
		a := g.q7Codes(wk, ic, mc, gemmMR)
		for j0 := 0; j0 < g.n; {
			body := q7Strip
			if q7Pair.nr > 0 && g.n-j0 > gemmNR {
				body = q7Pair
			}
			b := g.qw.Data[j0*lda:][:body.nr*lda]
			for ir := 0; ir < mc; ir += gemmMR {
				body.micro(a[ir*lda:], lda, b, g.qw.Kp, &wk.q7Acc)
				g.q7Store(wk, body, ic, ir, min(gemmMR, mc-ir), j0, min(body.nr, g.n-j0))
			}
			j0 += body.nr
		}
	}
	g.epi.rows(g.c, g.ldc, rowLo, rowHi, g.n)
}

// q7Codes returns the A codes of rows [ic, ic+mc), rows 4·Kp bytes
// apart, with the rows after them up to a whole tile of tileRows there
// to read: the packed acts in place when they reach that far, or else
// their rows copied into the worker's buffer; the quantized rows of x
// in that buffer, their parameters in wk.q7Rows. Padding rows are
// don't-care: they feed only discarded rows of a tile.
func (g *gemm) q7Codes(wk *worker, ic, mc, tileRows int) []uint8 {
	lda := 4 * g.qw.Kp
	n := roundUp(mc, tileRows) * lda
	if g.qa != nil {
		if a := g.qa.Data[ic*lda:]; len(a) >= n {
			return a
		}
		a := Grow(&wk.q7A, n)
		copy(a, g.qa.Data[ic*lda:(ic+mc)*lda])
		return a
	}
	a := Grow(&wk.q7A, n)
	for i := 0; i < mc; i++ {
		wk.q7Rows[i] = vec.quantize(a[i*lda:], g.a[(ic+i)*g.lda:][:g.k])
	}
	return a
}

// q7BlockRun computes the MC block of rows [ic, ic+mc) from its A codes
// a on the block body, 32 rows by q7BlockNC columns a call, into the
// worker's int32 buffer, and writes each call's sums out, raw or
// dequantized by the pair tile's dequantization, while they are still
// in L1.
func (g *gemm) q7BlockRun(wk *worker, a []uint8, ic, mc int) {
	lda := 4 * g.qw.Kp
	for i0 := 0; i0 < mc; i0 += 2 * q7TileRows {
		mr := min(2*q7TileRows, mc-i0)
		mt := (mr + q7TileRows - 1) / q7TileRows
		for j0 := 0; j0 < g.n; j0 += q7BlockNC {
			nc := min(q7BlockNC, g.n-j0)
			nt := (nc + gemmNR - 1) / gemmNR
			ldt := nt * gemmNR
			t := Grow(&wk.q7C, mt*q7TileRows*ldt)
			q7Block(a[i0*lda:], lda, g.qw.Data[j0*lda:], g.qw.Kp, t, ldt, mt, nt)
			i := ic + i0
			if g.ci == nil {
				q7Pair.dequant(g.c[i*g.ldc+j0:], g.ldc, t, ldt, wk.q7Rows[i0:i0+mr],
					g.scales[j0:j0+nc], g.qw.RowSum[j0:j0+nc], !g.zero)
				continue
			}
			for r := 0; r < mr; r++ {
				copy(g.ci[(i+r)*g.ldc+j0:][:nc], t[r*ldt:])
			}
		}
	}
}

// q7Store writes the valid mr×nr corner of the worker's tile, which
// body wrote — rows ic+ir.., columns j0.. — as raw int32 into ci, or
// dequantized into c (added to c's old value unless zero).
func (g *gemm) q7Store(wk *worker, body q7Body, ic, ir, mr, j0, nr int) {
	i := ic + ir
	if g.ci == nil {
		body.dequant(g.c[i*g.ldc+j0:], g.ldc, wk.q7Acc[:], body.nr, wk.q7Rows[ir:ir+mr],
			g.scales[j0:j0+nr], g.qw.RowSum[j0:j0+nr], !g.zero)
		return
	}
	for r := 0; r < mr; r++ {
		copy(g.ci[(i+r)*g.ldc+j0:], wk.q7Acc[r*body.nr:r*body.nr+nr])
	}
}

// q7QuantizeGo calibrates row per quant.CalibrateQ7 and writes its codes
// into dst.
func q7QuantizeGo(dst []uint8, row []float32) quant.Q7Params {
	// CalibrateQ7 fails only on an empty row, which has no codes.
	p, _ := quant.CalibrateQ7(row)
	p.QuantizeInto(dst, row)
	return p
}

// q7DequantGo is the portable q7Dequant.
func q7DequantGo(c []float32, ldc int, tile []int32, ldt int, rows []quant.Q7Params, scales []float32, rowSum []int32, accumulate bool) {
	for r, p := range rows {
		sa, za := p.Scale, float32(p.ZeroPoint)
		dst := c[r*ldc:][:len(scales)]
		for j, raw := range tile[r*ldt:][:len(scales)] {
			v := sa * scales[j] * (float32(raw) - za*float32(rowSum[j]))
			if accumulate {
				v += dst[j]
			}
			dst[j] = v
		}
	}
}

// Q7GemmTransBRef is the scalar reference implementation the int8
// kernels are bit-compared against in tests: the same exact integer
// product computed with plain int32 arithmetic over unpacked codes.
func Q7GemmTransBRef(c []int32, acts []uint8, weights []int8, m, n, k int) {
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var acc int32
			for p := 0; p < k; p++ {
				acc += int32(acts[i*k+p]) * int32(weights[j*k+p])
			}
			c[i*n+j] = acc
		}
	}
}
