package preprocess

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"harvest/internal/imaging"
)

// Pool is a persistent preprocessing worker pool: long-lived workers
// fed over a channel, each owning pinned scratch buffers (decode
// raster, warp raster, fused-kernel sample maps) that are reused
// across every item the worker ever processes. This replaces the
// throwaway per-batch goroutines the CPU engine used to spawn — under
// serving load, batch arrival rate times goroutine+allocation setup
// cost was pure overhead on the paper's CPU-bound path (§4.2).
//
// Results stream to the submitter as items complete; there is no
// batch barrier inside the pool, so a caller consuming results can
// overlap downstream work with the remaining items.
type Pool struct {
	jobs      chan job
	workers   int
	closeOnce sync.Once
	wg        sync.WaitGroup
}

// job is one item dispatched to a worker.
type job struct {
	eng  *CPUEngine
	item Item
	idx  int
	// out receives the item's result; it must have capacity for the
	// whole batch so workers never block on delivery.
	out chan<- itemResult
	// cancelFrom holds the lowest item index known to have failed
	// (math.MaxInt64 while none has): workers skip jobs above it, so
	// the first error stops the rest of the batch while any item that
	// could still become the lowest-index failure runs to completion —
	// which is what makes the batch's returned error deterministic.
	cancelFrom *atomic.Int64
}

// itemResult is one item's streamed outcome.
type itemResult struct {
	idx    int
	tensor []float32
	// cpuSec is the host CPU time this item took (decode + transform),
	// measured on the worker.
	cpuSec float64
	err    error
	// skipped marks items abandoned after another item's error
	// cancelled the batch.
	skipped bool
}

// scratch is a worker's pinned buffer set.
type scratch struct {
	kernel imaging.FusedKernel
	decode *imaging.Image
	warp   *imaging.Image
	// ppm is the reused header for zero-copy raw-frame decodes; its
	// Pix aliases the item's encoded bytes, never an owned buffer.
	ppm imaging.Image
}

// NewPool starts a pool of n persistent workers (n < 1 means
// GOMAXPROCS). Close releases them; a Pool must not be used after
// Close.
func NewPool(n int) *Pool {
	if n < 1 {
		n = runtime.GOMAXPROCS(0)
	}
	p := &Pool{jobs: make(chan job, 4*n), workers: n}
	p.wg.Add(n)
	for i := 0; i < n; i++ {
		go p.worker()
	}
	return p
}

// Close stops the workers after in-flight jobs finish. Safe to call
// more than once; submitting after Close panics.
func (p *Pool) Close() {
	p.closeOnce.Do(func() { close(p.jobs) })
	p.wg.Wait()
}

// worker is the long-lived loop: one pinned scratch set for the
// worker's whole lifetime.
func (p *Pool) worker() {
	defer p.wg.Done()
	var s scratch
	for j := range p.jobs {
		if j.cancelFrom != nil && int64(j.idx) > j.cancelFrom.Load() {
			j.out <- itemResult{idx: j.idx, skipped: true}
			continue
		}
		start := time.Now()
		tensor, err := j.eng.processInto(j.item, &s)
		j.out <- itemResult{
			idx: j.idx, tensor: tensor,
			cpuSec: time.Since(start).Seconds(), err: err,
		}
	}
}

// process runs one batch through the pool, streaming each completed
// item to deliver in completion order. It returns once every item has
// completed, errored, or been skipped by cancellation.
func (p *Pool) process(e *CPUEngine, items []Item, cancelFrom *atomic.Int64, deliver func(itemResult)) {
	out := make(chan itemResult, len(items))
	go func() {
		for i, it := range items {
			p.jobs <- job{eng: e, item: it, idx: i, out: out, cancelFrom: cancelFrom}
		}
	}()
	for range items {
		deliver(<-out)
	}
}
