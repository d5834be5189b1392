package tensor

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// The team's GOMAXPROCS−1 helpers, started by the first job wanting a
// second worker, run every multi-band product and MultiHeadAttention
// call beside its caller. An idle helper polls for teamSpin, then parks.
const (
	teamSpin           = 50 * time.Microsecond
	teamBandsPerWorker = 4 // row bands per worker, for balance
)

// job lives in its caller's worker: a product's row bands or
// attention's (image, head) pairs. claim is the post's generation (high
// 32 bits), so a stale helper cannot claim from a later post, and the
// tasks left (low 32). done counts the tasks helpers finished, less the
// tasks they claimed once the post is closed: the helper that brings it
// to zero signals wake. Helpers read the other fields only after a
// claim; the caller rewrites them only once every claimed task is done.
type job struct {
	claim atomic.Uint64
	done  atomic.Int32
	wake  chan struct{}
	tasks int
	g     gemm
	mha   mha
}

// run runs j's tasks on the caller's wk and up to w−1 helpers. When the
// board holds another job (another caller's, or the one whose task
// started this product) the caller runs every task itself. It blocks
// only for tasks a helper claimed, also when its own task panics.
func (j *job) run(wk *worker, w int) {
	j.done.Store(0)
	gen := (j.claim.Load()>>32 + 1) << 32
	j.claim.Store(gen | uint64(j.tasks))
	own := 0
	defer func() {
		left := int(uint32(j.claim.Swap(gen))) // close the post
		helpers.board.CompareAndSwap(j, nil)
		if j.done.Add(-int32(j.tasks-left-own)) != 0 {
			<-j.wake
		}
		j.g, j.mha = gemm{}, mha{}
	}()
	helpers.post(j, w-1)
	j.drain(wk, &own)
}

// drain claims and runs j's tasks on wk until none is left: attention's
// (image, head) pairs, or a product's bands of whole MR strips, none
// empty.
func (j *job) drain(wk *worker, ran *int) {
	for v := j.claim.Load(); uint32(v) > 0; v = j.claim.Load() {
		if !j.claim.CompareAndSwap(v, v-1) {
			continue
		}
		*ran++
		t, strips := j.tasks-int(uint32(v)), (j.g.m+gemmMR-1)/gemmMR
		if j.mha.heads > 0 {
			j.mha.task(wk, t)
		} else {
			j.g.band(wk, t*strips/j.tasks*gemmMR, min((t+1)*strips/j.tasks*gemmMR, j.g.m))
		}
	}
}

// team is the helpers and the board: the one job they claim tasks from.
// A helper parks on wake; mu guards the counts and wake.
type team struct {
	board           atomic.Pointer[job]
	mu              sync.Mutex
	wake            sync.Cond
	started, parked int
}

var helpers team

func init() { helpers.wake.L = &helpers.mu }

// post puts j on the board, unless it is taken, starts helpers up to
// GOMAXPROCS−1 and wakes up to w parked ones.
func (t *team) post(j *job, w int) {
	if w <= 0 || !t.board.CompareAndSwap(nil, j) {
		return
	}
	t.mu.Lock()
	for ; t.started < runtime.GOMAXPROCS(0)-1; t.started++ {
		go t.helper()
	}
	for range min(w, t.parked) {
		t.wake.Signal()
	}
	t.mu.Unlock()
}

// helper claims the board's tasks on a worker it owns for life.
func (t *team) helper() {
	wk, idle := new(worker), time.Now()
	for {
		ran := 0
		if j := t.board.Load(); j != nil {
			j.drain(wk, &ran)
			if ran > 0 && j.done.Add(int32(ran)) == 0 {
				j.wake <- struct{}{}
			}
		}
		switch {
		case ran > 0:
			idle = time.Now()
		case time.Since(idle) < teamSpin:
			runtime.Gosched()
		default:
			t.mu.Lock()
			if j := t.board.Load(); j == nil || uint32(j.claim.Load()) == 0 {
				t.parked++
				t.wake.Wait()
				t.parked--
			}
			t.mu.Unlock()
			idle = time.Now()
		}
	}
}

// teamWorkers sizes a job of tasks tasks and macs multiply-accumulates:
// at most GOMAXPROCS (and workerCap, which only tests lower) and one per
// task, and none with a share under gemmMinMACsPerBand.
func teamWorkers(tasks int, macs int64) int {
	return int(max(1, min(int64(runtime.GOMAXPROCS(0)), workerCap, int64(tasks), macs/gemmMinMACsPerBand)))
}

var workerCap int64 = math.MaxInt64
