package tensor

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
)

// Attention computes single-head scaled dot product attention for
// q (nq x dim), k (nk x dim) and v (nk x dv) and returns (nq x dv),
// through the same per-head kernel MultiHeadAttention runs.
func Attention(q, k, v *Tensor) *Tensor {
	nq, dim := q.Shape[0], q.Shape[1]
	nk, dv := k.Shape[0], v.Shape[1]
	if k.Shape[1] != dim || v.Shape[0] != nk {
		panic(shapeErrf("Attention operands q %v, k %v, v %v", q.Shape, k.Shape, v.Shape))
	}
	out := New(nq, dv)
	wk := getWorker()
	attendHead(wk, out.Data, dv, q.Data, k.Data, v.Data, dim, dim, dv, nq, nk, dim, dv)
	workers.Put(wk)
	return out
}

// MultiHeadAttention runs scaled dot-product attention for every
// (image, head) pair of a batch-major activation. qkv is
// (batch·seq × 3d), d = heads·dh, with Q, K and V in the column blocks
// [0,d), [d,2d) and [2d,3d) and head h in columns [h·dh, (h+1)·dh) of
// each; out is (batch·seq × d), each head writing its own column block.
// The batch·heads pairs are independent tasks on at most GOMAXPROCS
// goroutines, all joined before it returns; a pair's bits do not depend
// on which goroutine ran it.
func MultiHeadAttention(out, qkv []float32, batch, seq, heads, dh int) {
	d := heads * dh
	if len(qkv) < batch*seq*3*d || len(out) < batch*seq*d {
		panic(shapeErrf("MultiHeadAttention has qkv %d and out %d values for %d×%d tokens of width %d",
			len(qkv), len(out), batch, seq, d))
	}
	tasks := batch * heads
	var next atomic.Int64
	run := func() {
		wk := getWorker()
		for t := int(next.Add(1)) - 1; t < tasks; t = int(next.Add(1)) - 1 {
			b, h := t/heads, t%heads
			x := qkv[b*seq*3*d+h*dh:]
			attendHead(wk, out[b*seq*d+h*dh:], d, x, x[d:], x[2*d:], 3*d, 3*d, 3*d, seq, seq, dh, dh)
		}
		workers.Put(wk)
	}
	macs := 2 * int64(tasks) * int64(seq) * int64(seq) * int64(dh)
	w := min(runtime.GOMAXPROCS(0), tasks, max(1, int(macs/gemmMinMACsPerBand)))
	var wg sync.WaitGroup
	defer wg.Wait() // also when the caller's own tasks panic
	for i := 1; i < w; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run()
		}()
	}
	run()
}

// attendHead computes out = softmax(q·kᵀ/√dim)·v for one head — q
// (nq×dim), k (nk×dim), v (nk×dv), out (nq×dv) — addressing each by row
// stride so a head is read and written in place inside a wider
// activation. The 1/√dim scale and the softmax are the score GEMM's
// epilogue; the scores live in the worker's buffer. Each product runs
// as one band on wk: the task is the unit of parallelism.
func attendHead(wk *worker, out []float32, ldo int, q, k, v []float32, ldq, ldk, ldv, nq, nk, dim, dv int) {
	scores := Grow(&wk.scores, nq*nk)
	qk := gemm{c: scores, a: q, b: k, ldc: nk, lda: ldq, ldb: ldk, m: nq, n: nk, k: dim,
		transB: true, zero: true, epi: Epilogue{SoftmaxScale: float32(1 / math.Sqrt(float64(dim)))}}
	qk.parallel(wk, 1)
	pv := gemm{c: out, a: scores, b: v, ldc: ldo, lda: nk, ldb: ldv, m: nq, n: dv, k: nk, zero: true}
	pv.parallel(wk, 1)
}
