package tensor

import "harvest/internal/quant"

// Quantized GEMM over 7-bit codes, on the float GEMM's 6×16 register
// tile and row bands.
//
// Activations are unsigned codes in [0, 127], weights signed codes in
// [-63, 63], both grouped four at a time along K. Per A row and k-group
// the AVX2 kernel broadcasts the row's four codes, VPMADDUBSW multiplies
// them against sixteen columns' four codes and adds adjacent products
// into int16 (at most 2·127·63 = 16002 < 2¹⁵, so it never saturates),
// VPMADDWD by ones folds each column's two pairs into int32, and VPADDD
// accumulates. Every step is exact, so both kernel bodies return the
// true integer dot products for any K below 2³¹/(127·63) ≈ 268k.

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

// q7Kernel computes the 6×16 int32 product of a kg-group A strip (six
// rows of codes, row stride lda bytes) and a packed weight strip into c,
// row stride 16. Both bodies overwrite c.
type q7Kernel func(a []uint8, lda int, b []uint8, kg int, c *[gemmMR * gemmNR]int32)

// q7MicroGo is the portable body of the int8 micro-kernel.
func q7MicroGo(a []uint8, lda int, b []uint8, kg int, c *[gemmMR * gemmNR]int32) {
	clear(c[:])
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
// block of rows it takes the A strips from the packed acts, or
// quantizes the rows of x into the worker's buffer; then it sweeps each
// 16-row weight strip, kept in L1, across the block's A strips and
// writes every 6×16 tile out, raw or dequantized.
func (g *gemm) q7Band(wk *worker, rowLo, rowHi int) {
	lda := 4 * g.qw.Kp
	for ic := rowLo; ic < rowHi; ic += gemmMC {
		mc := min(gemmMC, rowHi-ic)
		var a []uint8
		if g.qa != nil {
			a = g.qa.Data[ic*lda:]
		} else {
			a = Grow(&wk.q7A, roundUp(mc, gemmMR)*lda)
			for i := 0; i < mc; i++ {
				wk.q7Rows[i] = vec.quantize(a[i*lda:], g.a[(ic+i)*g.lda:][:g.k])
			}
		}
		for j0 := 0; j0 < g.n; j0 += gemmNR {
			b := g.qw.Data[j0*lda:][:gemmNR*lda]
			for ir := 0; ir < mc; ir += gemmMR {
				q7Micro(a[ir*lda:], lda, b, g.qw.Kp, &wk.q7Tile)
				g.q7Store(wk, ic, ir, min(gemmMR, mc-ir), j0, min(gemmNR, g.n-j0))
			}
		}
	}
	g.epi.rows(g.c, g.ldc, rowLo, rowHi, g.n)
}

// q7Store writes the valid mr×nr corner of the worker's tile — rows
// ic+ir.., columns j0.. — as raw int32 into ci, or dequantized into c
// (added to c's old value unless zero).
func (g *gemm) q7Store(wk *worker, ic, ir, mr, j0, nr int) {
	i := ic + ir
	if g.ci == nil {
		vec.dequant(g.c[i*g.ldc+j0:], g.ldc, &wk.q7Tile, wk.q7Rows[ir:ir+mr],
			g.scales[j0:j0+nr], g.qw.RowSum[j0:j0+nr], !g.zero)
		return
	}
	for r := 0; r < mr; r++ {
		copy(g.ci[(i+r)*g.ldc+j0:], wk.q7Tile[r*gemmNR:r*gemmNR+nr])
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

// q7DequantGo writes the len(rows)×len(scales) corner of an int32 tile
// (row stride 16) into c (row stride ldc) as rows[r].Scale·scales[j]·
// (raw − ZeroPoint·rowSum[j]), added to c's old value when accumulate.
func q7DequantGo(c []float32, ldc int, tile *[gemmMR * gemmNR]int32, rows []quant.Q7Params, scales []float32, rowSum []int32, accumulate bool) {
	for r, p := range rows {
		sa, za := p.Scale, float32(p.ZeroPoint)
		dst := c[r*ldc:][:len(scales)]
		for j, raw := range tile[r*gemmNR:][:len(scales)] {
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
