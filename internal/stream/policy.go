package stream

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"harvest/internal/energy"
	"harvest/internal/imaging"
	"harvest/internal/serve"
	"harvest/internal/transfer"
)

// DefaultQueueThreshold is the local queue depth at which an edge
// replica starts shipping frames to the cloud tier.
const DefaultQueueThreshold = 4

// Decision is one offload choice, made per admitted frame.
type Decision struct {
	// Cloud is true when the frame should ship to the cloud tier.
	Cloud bool
	// EstWait is the estimated completion wait on the chosen tier,
	// used by the drop-stale gate. Zero when serving locally (the
	// session asks the local backend itself).
	EstWait time.Duration
	// Reason names the pressure signal that flipped the decision:
	// "queue", "power" or "deadline".
	Reason string
	// QueueDepth is the local queue depth observed at decision time.
	QueueDepth int64
	// PowerW is the modeled edge power draw at decision time (zero
	// unless a power budget is configured).
	PowerW float64
}

// OffloadPolicy decides, per frame at admission, whether an edge
// replica serves locally or ships the frame to cloud replicas over a
// modeled uplink (paper §4: Jetson-class edge keeps the 60 FPS SLO
// only while its queue is short; past that, cloud wins despite the
// link cost). The policy also models the uplink itself: one radio,
// serialized, with per-chunk protocol overhead.
type OffloadPolicy struct {
	// Cloud reaches the cloud tier (typically a harvest-router over
	// datacenter replicas).
	Cloud *serve.Client
	// Link models the edge→cloud uplink.
	Link transfer.Link
	// ChunkBytes is the link's message size for per-message overhead
	// accounting (0 = single message).
	ChunkBytes int
	// QueueThreshold is the local queue depth (frames enqueued but not
	// dispatched) at which offload engages (default 4).
	QueueThreshold int
	// EdgePowerBudgetW, when >0 with Power set, also engages offload
	// when the modeled edge power draw exceeds this budget.
	EdgePowerBudgetW float64
	// Power maps edge utilization to watts (required for
	// EdgePowerBudgetW).
	Power *energy.Model
	// LinkTimeScale is the fraction of the modeled link time really
	// slept (0 = full fidelity, negative = none), mirroring the serve
	// tier's TimeScale convention of scaling modeled latency into wall
	// time.
	LinkTimeScale float64

	// uplinkMu serializes the radio: two frames cannot transmit
	// concurrently over one uplink.
	uplinkMu sync.Mutex
	// uplinkBusy counts frames currently transmitting or queued for
	// the radio; it feeds the cloud-side wait estimate.
	uplinkBusy atomic.Int64

	// powerMu guards the edge-utilization EWMA behind PowerW.
	powerMu    sync.Mutex
	busyEWMA   float64
	lastUpdate time.Time
}

func (p *OffloadPolicy) threshold() int {
	if p.QueueThreshold <= 0 {
		return DefaultQueueThreshold
	}
	return p.QueueThreshold
}

func (p *OffloadPolicy) linkScale() float64 {
	if p.LinkTimeScale == 0 {
		return 1
	}
	if p.LinkTimeScale < 0 {
		return 0
	}
	return p.LinkTimeScale
}

func (p *OffloadPolicy) messages(payloadBytes int) int {
	return transfer.MessagesFor(payloadBytes, p.ChunkBytes)
}

// noteEdgeCompute feeds the power meter with one locally-served
// frame's compute seconds. The EWMA approximates edge utilization:
// compute time relative to the wall time since the previous sample.
func (p *OffloadPolicy) noteEdgeCompute(computeSeconds float64) {
	if p.EdgePowerBudgetW <= 0 || p.Power == nil || computeSeconds <= 0 {
		return
	}
	now := time.Now()
	p.powerMu.Lock()
	defer p.powerMu.Unlock()
	if p.lastUpdate.IsZero() {
		p.lastUpdate = now
		p.busyEWMA = 0
		return
	}
	dt := now.Sub(p.lastUpdate).Seconds()
	p.lastUpdate = now
	if dt <= 0 {
		dt = computeSeconds
	}
	util := computeSeconds / dt
	if util > 1 {
		util = 1
	}
	const alpha = 0.2
	p.busyEWMA = (1-alpha)*p.busyEWMA + alpha*util
}

// edgePowerW returns the modeled edge power draw at current
// utilization (zero when no power budget is configured).
func (p *OffloadPolicy) edgePowerW() float64 {
	if p.EdgePowerBudgetW <= 0 || p.Power == nil {
		return 0
	}
	p.powerMu.Lock()
	util := p.busyEWMA
	p.powerMu.Unlock()
	return p.Power.PowerAt(util)
}

// Decide picks the serving tier for one frame of payloadBytes, given
// the local tier's wait estimate and the frame's remaining budget.
// Past the queue-depth threshold a frame joins the shorter queue: it
// ships to the cloud unless the edge can still meet the deadline and the
// radio's own backlog (frames on the uplink × one transmit time) already
// exceeds the local wait — one serialized radio is far slower than the
// edge it relieves, and a burst priced onto it alone is dropped or
// expires in flight (DESIGN.md "Offload"). Offload also engages, whatever
// the radio holds, when the modeled edge power draw exceeds its budget
// or the edge alone cannot meet the deadline. The returned EstWait for a
// cloud decision prices the serialized radio (frames already on the
// uplink transmit first) plus one propagation delay, scaled to wall time
// like the sleeps in ship.
func (p *OffloadPolicy) Decide(local Backend, model string, payloadBytes int, estLocal, remaining time.Duration) Decision {
	if p == nil || p.Cloud == nil {
		return Decision{}
	}
	qd, err := local.QueueDepth(model)
	if err != nil {
		return Decision{}
	}
	d := Decision{QueueDepth: qd, PowerW: p.edgePowerW()}
	switch {
	case qd >= int64(p.threshold()):
		d.Reason = "queue"
	case d.PowerW > 0 && d.PowerW > p.EdgePowerBudgetW:
		d.Reason = "power"
	case estLocal > remaining:
		d.Reason = "deadline"
	default:
		return d
	}
	transmit := p.linkScale() * p.Link.TransmitOnlySeconds(payloadBytes, p.ChunkBytes)
	backlog := float64(p.uplinkBusy.Load()) * transmit
	if d.Reason == "queue" && estLocal <= remaining && backlog > estLocal.Seconds() {
		d.Reason = "" // the edge is the shorter queue
		return d
	}
	d.Cloud = true
	d.EstWait = time.Duration((backlog + transmit + p.linkScale()*p.Link.RTTSeconds) * float64(time.Second))
	return d
}

// ship transmits the frame over the modeled uplink and runs it on the
// cloud tier. The serialization delay is slept while holding the radio
// (a second frame queues behind it); the propagation delay is slept
// outside the lock (propagation pipelines). Returns the cloud response
// and the modeled upload seconds (unscaled, for metrics and spans). The
// caller has counted the frame into uplinkBusy, when it decided and not
// on this goroutine: a burst is decided before any of it is scheduled,
// and each decision must see the frames already bound for the radio.
func (p *OffloadPolicy) ship(ctx context.Context, id, model, tenant string, f Frame, format imaging.Format, deadline time.Time) (*serve.InferResponseJSON, float64, error) {
	transmit := p.Link.TransmitOnlySeconds(len(f.Image), p.ChunkBytes)
	uploadSec := transmit + p.Link.RTTSeconds
	scale := p.linkScale()

	p.uplinkMu.Lock()
	err := sleepCtx(ctx, time.Duration(scale*transmit*float64(time.Second)))
	p.uplinkMu.Unlock()
	p.uplinkBusy.Add(-1)
	if err != nil {
		return nil, uploadSec, err
	}
	if err := sleepCtx(ctx, time.Duration(scale*p.Link.RTTSeconds*float64(time.Second))); err != nil {
		return nil, uploadSec, err
	}

	deadlineMs := float64(time.Until(deadline)) / float64(time.Millisecond)
	if deadlineMs <= 0 {
		return nil, uploadSec, fmt.Errorf("stream: deadline expired on %s uplink", p.Link.Name)
	}
	out, err := p.Cloud.Infer(ctx, model, serve.InferRequestJSON{
		ID:          id,
		Tenant:      tenant,
		Items:       1,
		Images:      [][]byte{f.Image},
		ImageFormat: format.String(),
		Class:       "realtime",
		DeadlineMs:  deadlineMs,
	})
	if err != nil {
		return nil, uploadSec, err
	}
	return out, uploadSec, nil
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
