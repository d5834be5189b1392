package tensor

import (
	"errors"
	"fmt"
	"runtime"
	"sync"

	"harvest/internal/quant"
)

// ErrShape is the typed error wrapped by every shape-mismatch failure in
// this package. Kernel entry points panic with an error value satisfying
// errors.Is(err, ErrShape); API boundaries (engine.InferTensors) recover
// those panics and surface them as ordinary errors so a malformed model
// cannot crash a serving replica.
var ErrShape = errors.New("tensor: shape mismatch")

// shapeErrf builds an ErrShape-wrapping error for panic values.
func shapeErrf(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{ErrShape}, args...)...)
}

// Cache-blocking parameters of the packed GEMM, BLIS-style. The kernel
// computes C += A·B by tiling into MC×KC blocks of A and KC×NC panels of
// B and running an MR×NR register micro-kernel over them: a 6×16 tile is
// twelve 8-wide AVX2 accumulators, and on an AVX-512 host a 6×32 pair
// tile, twelve 16-wide ones, covers two adjacent strips at once. B is
// packed once per product into 16-column strips that every row band
// reads; A is read where it lies, six rows at a time. A KC×NR B strip
// (16 KiB; a pair twice that) stays in L1, an MC×KC block of A
// (144 KiB) in L2 beside the B panel (KC·NC·4 = 768 KiB). KC also fixes
// every output's summation order: each tile accumulates one KC panel
// from zero and is added to C once, so a row's bits depend on k alone —
// not on m, the band split, the tile's width or whether the row sits in
// an edge tile.
const (
	gemmMR     = 6          // micro-kernel rows
	gemmNR     = 16         // micro-kernel columns: one packed B strip
	gemmPairNR = 2 * gemmNR // pair-tile columns: two adjacent strips
	gemmKC     = 256        // K blocking (panel depth)
	gemmMC     = 144        // M blocking (rows per A block), a multiple of MR
	gemmNC     = 768        // N blocking (columns per B panel), a multiple of NR

	// gemmMinMACsPerBand is the smallest amount of work (multiply-
	// accumulates) worth a worker of its own; products below it run
	// serially and bands are never split finer than this.
	gemmMinMACsPerBand = 1 << 16
)

// microKernel adds the product of a kc-deep A strip (MR rows, row
// stride lda) and packed B into c (row stride ldc): MR×NR from one strip
// (NR values per k), or, for the pair tile, MR×2NR from two adjacent
// strips. Every body accumulates from zero and touches c once, at the
// end.
type microKernel func(a []float32, lda int, bp []float32, kc int, c []float32, ldc int)

// microGo is the portable body of the 6×16 micro-kernel.
func microGo(a []float32, lda int, bp []float32, kc int, c []float32, ldc int) {
	var acc [gemmMR][gemmNR]float32
	for p := 0; p < kc; p++ {
		b := (*[gemmNR]float32)(bp[p*gemmNR:])
		for r := range acc {
			ar, row := a[r*lda+p], &acc[r]
			for j := range row {
				row[j] += ar * b[j]
			}
		}
	}
	for r := range acc {
		cr := (*[gemmNR]float32)(c[r*ldc:])
		for j, v := range &acc[r] {
			cr[j] += v
		}
	}
}

// worker is one goroutine's GEMM working memory: a product's packed B,
// the copy of a partial last A strip and the edge-tile scratch, the int8
// A strips with their rows' quantization parameters, the int32 tile and
// the AMX block's int32 sums, the attention score rows, and — when this
// worker's caller runs a job on the team — the job the helpers read.
// A caller's workers come from a bounded free list, not a sync.Pool: a
// GC empties a pool, and the buffers would be allocated again on the
// next forward. Each helper owns one for its whole life.
type worker struct {
	packB, edgeA, scores []float32
	edge                 [gemmMR * gemmPairNR]float32
	q7A                  []uint8
	q7Rows               [gemmMC]quant.Q7Params
	q7Acc                q7Tile
	q7C                  []int32
	job                  job
}

var workers = FreeList[*worker]{Max: 2 * runtime.GOMAXPROCS(0)}

func getWorker() *worker {
	if w, ok := workers.Get(); ok {
		return w
	}
	return &worker{job: job{wake: make(chan struct{}, 1)}}
}

// Grow returns (*buf)[:n], first replacing *buf when its capacity is
// short. The contents are whatever the buffer last held.
func Grow[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	return (*buf)[:n]
}

// FreeList is a bounded stack of reusable values. A garbage collection
// does not empty it (unlike a sync.Pool), and it keeps at most Max
// values, so what it retains is bounded by peak concurrency, not by
// history. Safe for concurrent use.
type FreeList[T any] struct {
	Max   int
	mu    sync.Mutex
	items []T
}

// Get pops a value, reporting false when the list is empty.
func (f *FreeList[T]) Get() (v T, ok bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if n := len(f.items); n > 0 {
		v, f.items = f.items[n-1], f.items[:n-1]
		return v, true
	}
	return v, false
}

// Put keeps v for a later Get, or drops it when Max values are kept.
func (f *FreeList[T]) Put(v T) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.items) < f.Max {
		f.items = append(f.items, v)
	}
}

// gemm is one product C (m×n, row stride ldc) [+]= A (m×k, row stride
// lda) · B, followed by an epilogue on each finished row. B is b (fp32)
// or bh (float16/bfloat16 bit patterns), row-major k×n or, with transB,
// n×k; ldb is its row stride. An int8 product has packed weights qw
// instead and either packed codes qa with int32 output ci, or float A
// quantized per row with output dequantized by scales into C. The
// fields describe the operands so a band reads them without a closure;
// pb is B packed, which every band of a float product shares.
type gemm struct {
	c, a          []float32
	b, pb         []float32
	bh            []uint16
	ldc, lda, ldb int
	m, n, k       int
	transB, bf16  bool
	zero          bool // overwrite C's m×n block instead of adding to it
	epi           Epilogue

	qa, qw *PackedQ7
	ci     []int32
	scales []float32
}

// MatMulNaive computes C = A(MxK) * B(KxN) with the textbook triple
// loop. It is the reference implementation the optimized kernels are
// tested against, and the baseline of the achieved-vs-practical GFLOPS
// methodology in EXPERIMENTS.md.
func MatMulNaive(a, b *Tensor) *Tensor {
	m, k := a.Shape[0], a.Shape[1]
	k2, n := b.Shape[0], b.Shape[1]
	if k != k2 {
		panic(shapeErrf("MatMul inner dimension mismatch: %v x %v", a.Shape, b.Shape))
	}
	c := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var acc float32
			for p := 0; p < k; p++ {
				acc += a.Data[i*k+p] * b.Data[p*n+j]
			}
			c.Data[i*n+j] = acc
		}
	}
	return c
}

// MatMul computes C = A(MxK) * B(KxN) with the packed blocked-parallel
// kernel.
func MatMul(a, b *Tensor) *Tensor {
	m, k := a.Shape[0], a.Shape[1]
	k2, n := b.Shape[0], b.Shape[1]
	if k != k2 {
		panic(shapeErrf("MatMul inner dimension mismatch: %v x %v", a.Shape, b.Shape))
	}
	c := New(m, n)
	GemmInto(c.Data, a.Data, b.Data, m, n, k)
	return c
}

// GemmInto computes c += a*b on raw slices (c is assumed zeroed or to be
// accumulated into), with a (m x k), b (k x n), c (m x n), row-major.
func GemmInto(c, a, b []float32, m, n, k int) {
	g := gemm{c: c, a: a, b: b, ldc: n, lda: k, ldb: n, m: m, n: n, k: k}
	g.run()
}

// GemmTransBInto computes c += a*bᵀ with a (m x k), b (n x k), c
// (m x n), all row-major. This is the natural layout for linear layers
// whose weights are stored (out_features x in_features).
func GemmTransBInto(c, a, b []float32, m, n, k int) {
	GemmTransBEpilogue(c, a, b, m, n, k, true, Epilogue{})
}

// GemmTransBEpilogue computes c = a·bᵀ — or c += a·bᵀ when accumulate —
// with a (m×k), b (n×k), c (m×n) row-major, then applies epi to each
// finished row inside the parallel row bands.
func GemmTransBEpilogue(c, a, b []float32, m, n, k int, accumulate bool, epi Epilogue) {
	g := gemm{c: c, a: a, b: b, ldc: n, lda: k, ldb: k, m: m, n: n, k: k,
		transB: true, zero: !accumulate, epi: epi}
	g.run()
}

func (g *gemm) run() {
	if g.m <= 0 || g.n <= 0 || g.k <= 0 {
		return
	}
	g.check()
	wk := getWorker()
	defer workers.Put(wk)
	macs := int64(g.m) * int64(g.n) * int64(g.k)
	w := teamWorkers((g.m+gemmMR-1)/gemmMR, macs)
	g.parallel(wk, w, int(min(int64(w*teamBandsPerWorker), macs/gemmMinMACsPerBand)))
}

// check panics with ErrShape unless every operand holds the m×n×k
// product at its row strides, and the epilogue's norm fits (Norm.check)
// and writes apart from A, which other bands may still be reading. It
// runs on the caller's goroutine, before any band starts: a band that
// ran off an operand would panic on a helper goroutine, where nothing
// can recover it.
func (g *gemm) check() {
	span := func(rows, cols, ld int) int { return (rows-1)*ld + cols }
	cLen, bLen := len(g.c), len(g.b)
	if g.ci != nil {
		cLen = len(g.ci)
	}
	if g.bh != nil {
		bLen = len(g.bh)
	}
	bRows, bCols := g.k, g.n
	if g.transB {
		bRows, bCols = g.n, g.k
	}
	var bad string
	switch {
	case g.ldc < g.n || cLen < span(g.m, g.n, g.ldc):
		bad = "C"
	case g.qa == nil && (g.lda < g.k || len(g.a) < span(g.m, g.k, g.lda)):
		bad = "A"
	case g.qw == nil && (g.ldb < bCols || bLen < span(bRows, bCols, g.ldb)):
		bad = "B"
	case g.epi.Bias != nil && len(g.epi.Bias) < g.n:
		bad = "the bias"
	case g.epi.Norm.Dst == nil:
		return
	default:
		g.epi.Norm.check(g.c, g.m, g.n, g.ldc)
		if g.qa == nil && overlaps(g.epi.Norm.Dst[:g.m*g.n], g.a[:span(g.m, g.k, g.lda)]) {
			panic(shapeErrf("the norm's destination overlaps A of a %d×%d×%d product", g.m, g.n, g.k))
		}
		return
	}
	panic(shapeErrf("%s is too short for a %d×%d×%d product (lda %d, ldb %d, ldc %d)",
		bad, g.m, g.n, g.k, g.lda, g.ldb, g.ldc))
}

// parallel splits the rows into at most nb bands of whole MR strips
// and runs them on w workers of the team, the caller on wk, or serially
// on wk. A float product first packs all of B into wk on the caller; an
// int8 product's weights come packed.
func (g *gemm) parallel(wk *worker, w, nb int) {
	if g.qw == nil {
		g.pb = Grow(&wk.packB, roundUp(g.n, gemmNR)*g.k)
		for j0 := 0; j0 < g.n; j0 += gemmNR {
			jc := j0 / gemmNC * gemmNC
			for pc := 0; pc < g.k; pc += gemmKC {
				kc := min(gemmKC, g.k-pc)
				g.packBStrip(g.panel(jc, pc)[(j0-jc)*kc:][:gemmNR*kc], pc, j0, min(gemmNR, g.n-j0))
			}
		}
	}
	if nb = min(nb, (g.m+gemmMR-1)/gemmMR); w <= 1 || nb <= 1 {
		g.band(wk, 0, g.m)
		return
	}
	wk.job.g, wk.job.tasks = *g, nb
	wk.job.run(wk, w)
}

// panel returns packed B from the KC×NC panel at (pc, jc) on. The
// panels lie in loop order: an NC column block's panels down K, each
// panel's 16-column strips side by side (kc·16 values each), so the
// blocks before jc hold jc·k values.
func (g *gemm) panel(jc, pc int) []float32 {
	return g.pb[jc*g.k+pc*roundUp(min(gemmNC, g.n-jc), gemmNR):]
}

// band computes rows [rowLo,rowHi) of the product through the blocked
// pipeline: for each KC×NC panel of packed B and each MC block of the
// band's rows, sweep the panel's B strips — two at a time on the pair
// tile where the host has one, an odd last strip and every strip
// elsewhere on the 6×16 tile — across the block's A strips, read in
// place; then run the epilogue over the band's rows. An int8 product
// takes q7Band instead.
func (g *gemm) band(wk *worker, rowLo, rowHi int) {
	if g.qw != nil {
		g.q7Band(wk, rowLo, rowHi)
		return
	}
	c, ldc := g.c, g.ldc
	if g.zero {
		for i := rowLo; i < rowHi; i++ {
			clear(c[i*ldc : i*ldc+g.n])
		}
	}
	// Only the matrix's last strip can be partial (bands and MC blocks
	// are whole strips): its rows are copied into a whole strip first,
	// whose other rows feed only discarded rows of the tile.
	edgeRows := (rowHi - rowLo) % gemmMR
	for jc := 0; jc < g.n; jc += gemmNC {
		nc := min(gemmNC, g.n-jc)
		for pc := 0; pc < g.k; pc += gemmKC {
			kc := min(gemmKC, g.k-pc)
			pb := g.panel(jc, pc)
			var edgeA []float32
			if edgeRows > 0 {
				edgeA = Grow(&wk.edgeA, gemmMR*kc)
				for r := 0; r < edgeRows; r++ {
					copy(edgeA[r*kc:(r+1)*kc], g.a[(rowHi-edgeRows+r)*g.lda+pc:])
				}
			}
			for ic := rowLo; ic < rowHi; ic += gemmMC {
				mc := min(gemmMC, rowHi-ic)
				for jr := 0; jr < nc; {
					kern, w := micro, gemmNR
					if microPair != nil && nc-jr > gemmNR {
						kern, w = microPair, gemmPairNR
					}
					nr := min(w, nc-jr)
					bs := pb[jr*kc:]
					for ir := 0; ir < mc; ir += gemmMR {
						mr := min(gemmMR, mc-ir)
						as, lda := g.a[(ic+ir)*g.lda+pc:], g.lda
						if mr < gemmMR {
							as, lda = edgeA, kc
						}
						ct := c[(ic+ir)*ldc+jc+jr:]
						if mr == gemmMR && nr == w {
							kern(as, lda, bs, kc, ct, ldc)
							continue
						}
						// Edge tile: run the same kernel on a copy of the
						// valid region, so its bits match a full tile's. A
						// partial strip's padding columns are packed zeros.
						t := wk.edge[:gemmMR*w]
						for i := 0; i < mr; i++ {
							copy(t[i*w:i*w+nr], ct[i*ldc:i*ldc+nr])
						}
						kern(as, lda, bs, kc, t, w)
						for i := 0; i < mr; i++ {
							copy(ct[i*ldc:i*ldc+nr], t[i*w:i*w+nr])
						}
					}
					jr += w
				}
			}
		}
	}
	g.epi.rows(c, ldc, rowLo, rowHi, g.n)
}

// packBStrip fills the NR-column strip dst with the kc×w block of B at
// (kOff, j0), w ≤ NR, kc = len(dst)/NR: for each k, NR adjacent values,
// zero-padded past w.
func (g *gemm) packBStrip(dst []float32, kOff, j0, w int) {
	kc := len(dst) / gemmNR
	if w < gemmNR {
		clear(dst)
	}
	switch {
	case !g.transB:
		for p := 0; p < kc; p++ {
			copy(dst[p*gemmNR:p*gemmNR+w], g.b[(kOff+p)*g.ldb+j0:])
		}
	case g.bh != nil:
		vec.packTHalf(dst, g.bh[j0*g.ldb+kOff:], g.ldb, w, g.bf16)
	default:
		vec.packT(dst, g.b[j0*g.ldb+kOff:], g.ldb, w)
	}
}

// packTransGo fills the strip dst from w ≤ NR rows of src, ld apart,
// kc = len(dst)/NR values each: column j of B is row j of a transposed
// b, so each row is read contiguously and spread NR apart.
func packTransGo(dst, src []float32, ld, w int) {
	kc := len(dst) / gemmNR
	for e := 0; e < w; e++ {
		for p, v := range src[e*ld:][:kc] {
			dst[p*gemmNR+e] = v
		}
	}
}
