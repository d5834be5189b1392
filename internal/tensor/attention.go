package tensor

import "math"

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
// The batch·heads pairs are independent tasks of one team job; a pair's
// bits do not depend on which worker ran it.
func MultiHeadAttention(out, qkv []float32, batch, seq, heads, dh int) {
	d := heads * dh
	if len(qkv) < batch*seq*3*d || len(out) < batch*seq*d {
		panic(shapeErrf("MultiHeadAttention has qkv %d and out %d values for %d×%d tokens of width %d",
			len(qkv), len(out), batch, seq, d))
	}
	tasks := batch * heads
	wk := getWorker()
	defer workers.Put(wk)
	wk.job.mha, wk.job.tasks = mha{out: out, qkv: qkv, seq: seq, heads: heads, dh: dh}, tasks
	wk.job.run(wk, teamWorkers(tasks, 2*int64(tasks)*int64(seq)*int64(seq)*int64(dh)))
}

// mha is a MultiHeadAttention call's operands; task t is image t/heads,
// head t%heads.
type mha struct {
	out, qkv       []float32
	seq, heads, dh int
}

func (a *mha) task(wk *worker, t int) {
	b, h, d := t/a.heads, t%a.heads, a.heads*a.dh
	x := a.qkv[b*a.seq*3*d+h*a.dh:]
	attendHead(wk, a.out[b*a.seq*d+h*a.dh:], d, x, x[d:], x[2*d:], 3*d, 3*d, 3*d, a.seq, a.seq, a.dh, a.dh)
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
	qk.parallel(wk, 1, 1)
	pv := gemm{c: out, a: scores, b: v, ldc: ldo, lda: nk, ldb: ldv, m: nq, n: dv, k: nk, zero: true}
	pv.parallel(wk, 1, 1)
}
