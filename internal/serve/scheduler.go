package serve

import "time"

// scheduler is one model's dynamic batcher as a pure decision: the
// three class lanes (per-tenant deficit round robin inside each, see
// tenant.go), the anti-starvation valve, the forming batch and the one
// request held over when it did not fit. It reads no clock and touches
// no channel, timer or goroutine — time is an argument of next — so the
// same code can be stepped by a test, or by a simulator in virtual
// time. The runtime's qmu guards it.
type scheduler struct {
	cfg   *ModelConfig // MaxBatch, QueueDelay, AntiStarveEvery and the execution estimate
	lanes [numClasses]*drrLane
	// pops counts requests taken from the lanes; every
	// AntiStarveEvery-th pop prefers the lowest-priority lane.
	pops uint64

	batch     []*pending // the forming batch
	items     int        // its item count
	windowEnd time.Time  // when its batching window closes
	earliest  time.Time  // its earliest deadline; zero = none
	// held was popped but did not fit the batch it met; it starts the
	// next one.
	held *pending
}

func newScheduler(cfg *ModelConfig) *scheduler {
	s := &scheduler{cfg: cfg}
	for c := range s.lanes {
		s.lanes[c] = newDRRLane(cfg.TenantQuantum)
	}
	return s
}

// push queues an admitted request in its tenant's sub-queue of its
// class lane. It cannot fail: admit() bounds lane occupancy, and the
// lanes are unbounded deques.
func (s *scheduler) push(p *pending) { s.lanes[p.class].push(p) }

// pop takes the next queued request, preferring higher-priority lanes.
// Under backlog this is how realtime work overtakes online and offline
// work — except every AntiStarveEvery-th pop, which prefers the lowest
// lane so sustained realtime load cannot starve offline work forever.
// Within a lane, tenants are served by deficit round-robin.
func (s *scheduler) pop() *pending {
	every := s.cfg.AntiStarveEvery
	reversed := every > 0 && s.pops%uint64(every) == uint64(every-1)
	for i := range laneOrder {
		c := laneOrder[i]
		if reversed {
			c = laneOrder[len(laneOrder)-1-i]
		}
		if p := s.lanes[c].pop(); p != nil {
			s.pops++
			return p
		}
	}
	return nil
}

// backlogItemsAtOrAbove sums the queued items a new submission of the
// given class would wait behind: its own lane plus every
// higher-priority lane. This is the lane-aware backlog behind
// Retry-After hints — an offline flood must not inflate a realtime
// caller's backoff.
func (s *scheduler) backlogItemsAtOrAbove(class Class) int64 {
	var items int64
	for _, c := range laneOrder {
		items += int64(s.lanes[c].items)
		if c == class {
			break
		}
	}
	return items
}

// fits reports whether p may join the forming batch. Anything fits an
// empty one; after that the batch stays within MaxBatch and homogeneous
// in whether its members carry real tensors: fusing tensor-carrying and
// items-only requests would make InferTensors run over fewer tensors
// than the batch's item count claims.
func (s *scheduler) fits(p *pending) bool {
	return len(s.batch) == 0 || s.items+p.req.Items <= s.cfg.MaxBatch &&
		(len(p.req.Inputs) > 0) == (len(s.batch[0].req.Inputs) > 0)
}

// add appends p to the forming batch; the first member opens the
// batching window. This is the only place batch membership grows.
func (s *scheduler) add(p *pending, now time.Time) {
	if len(s.batch) == 0 {
		s.windowEnd = now.Add(s.cfg.QueueDelay)
		s.earliest = time.Time{}
	}
	s.batch = append(s.batch, p)
	s.items += p.req.Items
	if !p.deadline.IsZero() && (s.earliest.IsZero() || p.deadline.Before(s.earliest)) {
		s.earliest = p.deadline
	}
}

// take hands the forming batch over and starts an empty one.
func (s *scheduler) take() []*pending {
	batch := s.batch
	s.batch, s.items = nil, 0
	return batch
}

// fireAt is when the forming batch is due: at the end of its batching
// window, or earlier so that its earliest deadline can still be met
// after the estimated execution time. Growth only moves it earlier: a
// larger batch executes longer, and a new earliest deadline leaves less
// slack.
func (s *scheduler) fireAt() time.Time {
	at := s.windowEnd
	if !s.earliest.IsZero() {
		if latest := s.earliest.Add(-s.cfg.execEstimate(s.items)); latest.Before(at) {
			at = latest
		}
	}
	return at
}

// next is the whole batching decision at time now. It moves queued
// requests (highest-priority lane first) into the forming batch and
// returns that batch once it is due: it holds MaxBatch items, the next
// request does not fit it (that request is held and starts the
// following batch), the window opened by its first member has run
// QueueDelay, or waiting any longer would make its earliest deadline
// unmeetable. With flush set (graceful drain) whatever has formed is
// due at once.
//
// A nil batch means nothing is due: wake is when to call again if no
// request arrives sooner, zero when nothing is forming either. Calling
// early or repeatedly is harmless — the answer depends only on the
// queue and now.
func (s *scheduler) next(now time.Time, flush bool) (batch []*pending, wake time.Time) {
	for s.items < s.cfg.MaxBatch {
		p := s.held
		s.held = nil
		if p == nil {
			if p = s.pop(); p == nil {
				break
			}
			p.recvAt = now
		}
		if !s.fits(p) {
			s.held = p
			return s.take(), time.Time{}
		}
		s.add(p, now)
	}
	if len(s.batch) == 0 {
		return nil, time.Time{}
	}
	if at := s.fireAt(); !flush && s.items < s.cfg.MaxBatch && now.Before(at) {
		return nil, at
	}
	return s.take(), time.Time{}
}

// enqueue places an admitted request into the scheduler and wakes the
// batcher.
func (rt *modelRuntime) enqueue(p *pending) {
	rt.qmu.Lock()
	rt.sched.push(p)
	rt.qmu.Unlock()
	select {
	case rt.notify <- struct{}{}:
	default:
	}
}

// step asks the scheduler for its decision at the current wall time.
func (rt *modelRuntime) step(flush bool) (batch []*pending, wake time.Time) {
	rt.qmu.Lock()
	defer rt.qmu.Unlock()
	return rt.sched.next(time.Now(), flush)
}

// batcherLoop drives the scheduler in wall time: it dispatches every
// batch next returns, and otherwise sleeps until the wake time next
// asked for, an enqueue, or shutdown. Graceful drain is the same loop
// with flush set, so queued work is served, not failed, until the lanes
// are empty or the drain deadline aborts. A spurious wakeup (a stale
// notify token or timer tick) only costs one more call to next.
func (rt *modelRuntime) batcherLoop(batches chan<- []*pending) {
	defer close(batches)
	timer := time.NewTimer(time.Hour)
	timer.Stop()
	defer timer.Stop()
	flush := false
	for {
		select {
		case <-rt.abort:
			rt.failQueued()
			return
		default:
		}
		batch, wake := rt.step(flush)
		if batch != nil {
			rt.dispatch(batches, batch)
			continue
		}
		if flush {
			return
		}
		// Safe because the batcher is the scheduler's only consumer: a
		// producer that pushes after step returned has already made a
		// notify send (buffered, never dropped), so the wakeup cannot be
		// lost.
		var fire <-chan time.Time
		if !wake.IsZero() {
			timer.Reset(time.Until(wake))
			fire = timer.C
		}
		select {
		case <-rt.notify:
		case <-fire:
		case <-rt.closing:
			flush = true
		}
		if fire != nil && !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
	}
}

// dispatch claims the batch's pendings and hands the survivors to an
// instance. Requests cancelled while queued, and requests whose
// deadline can no longer be met even if executed right now, are
// evicted here — they never occupy a dispatched batch slot. A send the
// drain deadline aborts fails the claimed survivors instead.
func (rt *modelRuntime) dispatch(batches chan<- []*pending, batch []*pending) {
	live := batch[:0]
	for _, p := range batch {
		rt.release(p)
		if p.claim() {
			live = append(live, p)
		} else {
			rt.met.cancelled.Inc()
		}
	}
	if live = rt.expire(live, time.Now()); len(live) == 0 {
		return
	}
	select {
	case batches <- live:
	case <-rt.abort:
		for _, p := range live {
			rt.met.errors.Inc()
			p.out <- outcome{err: ErrServerClosed}
		}
	}
}

// failQueued fails everything the scheduler still holds (lanes,
// forming batch, held request) with ErrServerClosed, except requests
// their submitter already cancelled.
func (rt *modelRuntime) failQueued() {
	for batch, _ := rt.step(true); batch != nil; batch, _ = rt.step(true) {
		for _, p := range batch {
			rt.release(p)
			if p.claim() {
				rt.met.errors.Inc()
				p.out <- outcome{err: ErrServerClosed}
			} else {
				rt.met.cancelled.Inc()
			}
		}
	}
}
