package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sort"
	"sync"
	"time"

	"harvest/internal/core"
	"harvest/internal/engine"
	"harvest/internal/serve"
	"harvest/internal/stream"
	"harvest/internal/tensor"
)

// sloLimit is the latency limit the online and real-time callers score
// against.
const sloLimit = 100 * time.Millisecond

// workload is one set of inputs plus the tier and discipline that run
// them. prepare synthesizes the inputs from the seed; build constructs
// the tier; first sends one op through the full path and verifies the
// answer (build→first is what setup_s times); run executes a warm-up
// and a measured window; verify runs the post-run output checks.
type workload interface {
	name() string
	// concurrency is the number of callers (closed loop) or cameras
	// (open loop) of the end-to-end run; the traced pass uses one.
	concurrency() int
	// setups is how many times set-up is repeated for its median.
	setups() int
	prepare(seed uint64)
	build(tr *tracer) (*tier, error)
	first(t *tier) error
	run(t *tier, callers int, warm, dur time.Duration, tr *tracer) (*pass, error)
	verify(t *tier) []string
}

// serveCounters is the part of the serving tier's public metric
// surface the conservation checks and boundary counts read.
type serveCounters struct {
	routerRequests, spills, failovers       int64
	requests, items, batches, shed, expired int64
	queueP50Ms                              float64
	stream                                  stream.MetricsSnapshot
}

// readCounters sums the model's counters over the tier's replicas and
// reads the router's own.
func readCounters(t *tier, model string) (serveCounters, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var c serveCounters
	reps := t.replicas
	if t.edge != nil {
		reps = []replica{*t.edge}
	}
	var waits []float64
	for _, r := range reps {
		m, err := r.client.Metrics(ctx)
		if err != nil {
			return c, fmt.Errorf("metrics of %s: %w", r.name, err)
		}
		for _, mm := range m.Models {
			if mm.Model != model {
				continue
			}
			c.requests += mm.Requests
			c.items += mm.Items
			c.batches += mm.Batches
			c.shed += mm.Shed
			c.expired += mm.Expired
			if mm.QueueMs.Count > 0 {
				waits = append(waits, mm.QueueMs.P50Ms)
			}
		}
		if raw, ok := m.Extensions["stream"]; ok {
			if err := json.Unmarshal(raw, &c.stream); err != nil {
				return c, fmt.Errorf("stream metrics of %s: %w", r.name, err)
			}
		}
	}
	c.queueP50Ms = median(waits)
	if t.router != nil && t.edge == nil {
		rm := t.router.Metrics(ctx).Router
		c.routerRequests, c.spills, c.failovers = rm.Requests, rm.Spills, rm.Failovers
	}
	return c, nil
}

// serveCounts turns two counter snapshots into the boundary counts.
func serveCounts(before, after serveCounters) map[string]float64 {
	out := map[string]float64{
		"serve.queue_wait_p50_ms": after.queueP50Ms,
		"serve.shed":              float64(after.shed - before.shed),
		"serve.expired":           float64(after.expired - before.expired),
		"router.spills":           float64(after.spills - before.spills),
		"router.failovers":        float64(after.failovers - before.failovers),
	}
	if b := after.batches - before.batches; b > 0 {
		out["serve.batch.mean_items"] = float64(after.items-before.items) / float64(b)
	}
	return out
}

// onlineWorkload is online_rpc and online_frames: closed-loop callers
// of serve.Client.Infer against a router over two replicas.
type onlineWorkload struct {
	label string
	model string
	cfg   core.DeploymentConfig
	seed  uint64
	// frames is nil for the payload-free RPC workload.
	frameSize int
	frames    [][]byte
}

func (o *onlineWorkload) name() string     { return o.label }
func (o *onlineWorkload) concurrency() int { return 2 }
func (o *onlineWorkload) setups() int      { return 25 }

func (o *onlineWorkload) prepare(seed uint64) {
	o.seed = seed
	if o.frameSize > 0 {
		o.frames = framePool(seed, 0, 8, o.frameSize, 16)
	}
}

func (o *onlineWorkload) build(tr *tracer) (*tier, error) { return buildOnline(o.cfg, tr) }

func (o *onlineWorkload) body(w, i int) serve.InferRequestJSON {
	if o.frames != nil {
		return frameBody(o.seed, o.frames, w, i)
	}
	return rpcBody(o.seed, w, i)
}

// call sends request i of caller w and checks the echo.
func (o *onlineWorkload) call(t *tier, w, i int, tr *tracer) error {
	body := o.body(w, i)
	start := time.Now()
	resp, err := t.client.Infer(context.Background(), o.model, body)
	tr.add(spanClientInfer, body.ID, "", start, time.Now())
	if err != nil {
		return err
	}
	if resp.Model != o.model || resp.Items != body.Items || resp.Tenant != body.Tenant || resp.ID != body.ID {
		return wrongf("%s: response echoes model=%q items=%d tenant=%q id=%q, want %q %d %q %q",
			body.ID, resp.Model, resp.Items, resp.Tenant, resp.ID, o.model, body.Items, body.Tenant, body.ID)
	}
	return nil
}

// The set-up request sits outside every caller's sequence.
func (o *onlineWorkload) first(t *tier) error { return o.call(t, 0, -1, nil) }

func (o *onlineWorkload) run(t *tier, callers int, warm, dur time.Duration, tr *tracer) (*pass, error) {
	before, err := readCounters(t, o.model)
	if err != nil {
		return nil, err
	}
	sent := make([]int, callers) // answered requests per caller, warm-up included
	p := closedLoop(callers, windowSlices, warm, dur, 1, sloLimit, tr, func(w, i int) error {
		err := o.call(t, w, i, tr)
		if err == nil {
			sent[w]++
		}
		return err
	})
	after, err := readCounters(t, o.model)
	if err != nil {
		return nil, err
	}
	answered := 0
	for _, n := range sent {
		answered += n
	}
	// Conservation: every answer the callers saw was counted once by
	// the router and once by exactly one replica.
	if got := after.routerRequests - before.routerRequests; got != int64(answered) {
		p.wrong = append(p.wrong, fmt.Sprintf("callers saw %d answers, router counted %d", answered, got))
	}
	if got := after.requests - before.requests; got != int64(answered) {
		p.wrong = append(p.wrong, fmt.Sprintf("callers saw %d answers, replicas counted %d", answered, got))
	}
	p.counts = serveCounts(before, after)
	return p, nil
}

func (o *onlineWorkload) verify(*tier) []string { return nil }

// offlineWorkload is offline_fp32 and offline_int8: one caller pushing
// tensor requests through a single real-compute replica.
type offlineWorkload struct {
	precision string
	job       *tensorJob
	mu        sync.Mutex
	// seen holds the first logits served for each pool entry.
	seen map[int][][]float32
}

const (
	offlineModel     = "ViT_Tiny"
	offlineInputSize = 32
	offlinePerReq    = 2
	offlineClasses   = 1000
	// offlineRealSeed seeds the weights; it is tier configuration, not
	// input, so it does not follow --seed.
	offlineRealSeed = 1
	// int8LogitDelta is the repo's own bound on int8 logits, relative to
	// the fp32 logit range (internal/models TestViTBaseInt8LogitsDelta).
	int8LogitDelta = 0.15
)

func (o *offlineWorkload) name() string     { return "offline_" + o.precision }
func (o *offlineWorkload) concurrency() int { return 1 }
func (o *offlineWorkload) setups() int      { return 5 }

func (o *offlineWorkload) prepare(seed uint64) {
	// Four pool entries: the job wraps around within a short window, so
	// repeats of one request are compared in every run.
	o.job = newTensorJob(seed, 4, offlinePerReq, offlineInputSize)
	o.seen = map[int][][]float32{}
}

func (o *offlineWorkload) build(tr *tracer) (*tier, error) {
	return buildSingle(core.DeploymentConfig{
		Platform: "A100", Models: []string{offlineModel}, TimeScale: 0,
		RealBackend: o.precision, RealSeed: offlineRealSeed,
	}, tr)
}

func (o *offlineWorkload) call(t *tier, i int, tr *tracer) error {
	body := o.job.body(i)
	start := time.Now()
	resp, err := t.client.Infer(context.Background(), offlineModel, body)
	tr.add(spanClientInfer, body.ID, "", start, time.Now())
	if err != nil {
		return err
	}
	if resp.Model != offlineModel || resp.Items != body.Items || resp.Tenant != body.Tenant {
		return wrongf("%s: response echoes model=%q items=%d tenant=%q", body.ID, resp.Model, resp.Items, resp.Tenant)
	}
	if len(resp.Outputs) != body.Items {
		return wrongf("%s: %d logit rows for %d images", body.ID, len(resp.Outputs), body.Items)
	}
	for _, row := range resp.Outputs {
		if len(row) != offlineClasses {
			return wrongf("%s: %d logits, want %d", body.ID, len(row), offlineClasses)
		}
		for _, v := range row {
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
				return wrongf("%s: non-finite logit", body.ID)
			}
		}
	}
	// The same request must produce the same bits every time.
	idx := o.job.index(i)
	o.mu.Lock()
	defer o.mu.Unlock()
	if prev, ok := o.seen[idx]; !ok {
		o.seen[idx] = resp.Outputs
	} else if !sameBits(prev, resp.Outputs) {
		return wrongf("%s: logits differ from an earlier answer to the same request", body.ID)
	}
	return nil
}

func sameBits(a, b [][]float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if math.Float32bits(a[i][j]) != math.Float32bits(b[i][j]) {
				return false
			}
		}
	}
	return true
}

func (o *offlineWorkload) first(t *tier) error { return o.call(t, 0, nil) }

func (o *offlineWorkload) run(t *tier, callers int, warm, dur time.Duration, tr *tracer) (*pass, error) {
	before, err := readCounters(t, offlineModel)
	if err != nil {
		return nil, err
	}
	answered := 0
	// One request is a large share of any window this benchmark can
	// afford, so the warm-up is the set-up request alone.
	p := closedLoop(1, slicePerOp, 0, dur, offlinePerReq, time.Hour, tr, func(_, i int) error {
		err := o.call(t, i, tr)
		if err == nil {
			answered++
		}
		return err
	})
	after, err := readCounters(t, offlineModel)
	if err != nil {
		return nil, err
	}
	if got := after.requests - before.requests; got != int64(answered) {
		p.wrong = append(p.wrong, fmt.Sprintf("caller saw %d answers, replica counted %d", answered, got))
	}
	p.counts = serveCounts(before, after)
	return p, nil
}

// verify compares the served logits of the job's first request with a
// direct forward pass of the same weights: bit-equal for fp32, within
// the repo's int8 bound otherwise.
func (o *offlineWorkload) verify(t *tier) []string {
	idx := o.job.index(0)
	served, ok := o.seen[idx]
	if !ok {
		return []string{"no served logits to verify"}
	}
	cfg, err := t.replicas[0].srv.ModelConfigFor(offlineModel)
	if err != nil {
		return []string{err.Error()}
	}
	ref, err := engine.New(cfg.Engine.Platform, offlineModel)
	if err == nil {
		err = ref.AttachReal("fp32", offlineRealSeed)
	}
	if err != nil {
		return []string{"reference model: " + err.Error()}
	}
	in := o.job.bodies[idx]
	x := tensor.New(len(in), 3, offlineInputSize, offlineInputSize)
	for i, t := range in {
		copy(x.Data[i*len(t):], t)
	}
	y, err := ref.Real.Forward(x)
	if err != nil {
		return []string{"reference forward: " + err.Error()}
	}
	lo, hi := float32(math.Inf(1)), float32(math.Inf(-1))
	maxDiff := 0.0
	for i, row := range served {
		for j, v := range row {
			want := y.Data[i*offlineClasses+j]
			lo, hi = min(lo, want), max(hi, want)
			maxDiff = math.Max(maxDiff, math.Abs(float64(v-want)))
		}
	}
	switch {
	case o.precision == "fp32" && maxDiff != 0:
		return []string{fmt.Sprintf("served fp32 logits differ from a direct forward pass by %g", maxDiff)}
	case maxDiff/float64(hi-lo) > int8LogitDelta:
		return []string{fmt.Sprintf("served %s logits are %.4f of the fp32 logit range away, bound %.2f",
			o.precision, maxDiff/float64(hi-lo), int8LogitDelta)}
	}
	return nil
}

// streamWorkload is realtime_stream: cameras on an open-loop frame
// schedule against the edge ingest tier, which offloads to the cloud.
type streamWorkload struct {
	pools [][][]byte
}

const (
	streamFrameSize = 96
	streamPoolSize  = 64
	streamCameras   = 2
)

func (s *streamWorkload) name() string     { return "realtime_stream" }
func (s *streamWorkload) concurrency() int { return streamCameras }
func (s *streamWorkload) setups() int      { return 15 }

func (s *streamWorkload) prepare(seed uint64) {
	s.pools = make([][][]byte, streamCameras)
	for c := range s.pools {
		// A pool entry recurs after more than the dedup cache's TTL, so
		// no frame is ever answered from the cache.
		s.pools[c] = framePool(seed, c+1, streamPoolSize, streamFrameSize, 8)
	}
}

func (s *streamWorkload) build(tr *tracer) (*tier, error) { return buildStream(tr) }

// first opens a session, sends one frame and waits for it to be served.
func (s *streamWorkload) first(t *tier) error {
	hc := &http.Client{Transport: serve.NewTransport()}
	defer hc.CloseIdleConnections()
	sess, err := stream.DialSession(context.Background(), hc, t.url, "cam-setup", "", tenants[0], 0)
	if err != nil {
		return err
	}
	if err := sess.Send(stream.Frame{Seq: 1, Image: s.pools[0][0], Format: "ppm"}); err != nil {
		return err
	}
	o, ok := <-sess.Outcomes()
	if err := sess.CloseSend(); err != nil {
		return err
	}
	if _, err := sess.Wait(); err != nil {
		return err
	}
	if !ok || o.Outcome != stream.OutcomeServed || o.Seq != 1 {
		return wrongf("set-up frame: outcome %+v", o)
	}
	return nil
}

// camera is one session's bookkeeping.
type camera struct {
	name     string
	sched    frameSchedule
	frames   int
	sentAt   []time.Time
	outcomes []stream.Outcome
	gotAt    []time.Time
	seen     []int
	summary  stream.Summary
	err      error
}

func (s *streamWorkload) run(t *tier, cams int, warm, dur time.Duration, tr *tracer) (*pass, error) {
	before, err := readCounters(t, streamModel)
	if err != nil {
		return nil, err
	}
	hc := &http.Client{Transport: serve.NewTransport()}
	defer hc.CloseIdleConnections()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	total := warm + dur
	cameras := make([]*camera, cams)
	sessions := make([]*stream.ClientSession, cams)
	for c := range cameras {
		cam := &camera{name: fmt.Sprintf("cam-%d", c), sched: newFrameSchedule(c, cams, streamFPS/float64(cams))}
		cam.frames = int((total - cam.sched.phase) / cam.sched.period)
		cam.sentAt = make([]time.Time, cam.frames)
		cam.outcomes = make([]stream.Outcome, cam.frames)
		cam.gotAt = make([]time.Time, cam.frames)
		cam.seen = make([]int, cam.frames)
		cameras[c] = cam
		sessions[c], err = stream.DialSession(ctx, hc, t.url, cam.name, "", tenants[c%2], 0)
		if err != nil {
			return nil, fmt.Errorf("dial %s: %w", cam.name, err)
		}
	}

	start := time.Now()
	windowStart := start.Add(warm)
	marks := startMarker(windowStart, dur, windowSlices, tr.reset)
	var wg sync.WaitGroup
	for c, cam := range cameras {
		sess, pool := sessions[c], s.pools[c]
		wg.Add(2)
		go func() { // receiver
			defer wg.Done()
			for o := range sess.Outcomes() {
				now := time.Now()
				i := int(o.Seq) - 1
				if i < 0 || i >= cam.frames {
					continue // counted as a conservation failure below
				}
				cam.seen[i]++
				cam.outcomes[i], cam.gotAt[i] = o, now
			}
		}()
		go func() { // sender
			defer wg.Done()
			for i := 0; i < cam.frames; i++ {
				time.Sleep(time.Until(start.Add(cam.sched.due(i))))
				cam.sentAt[i] = time.Now()
				if err := sess.Send(stream.Frame{Seq: int64(i + 1), Image: pool[i%len(pool)], Format: "ppm"}); err != nil {
					cam.err = fmt.Errorf("%s: send frame %d: %w", cam.name, i+1, err)
					cancel()
					return
				}
			}
			if err := sess.CloseSend(); err != nil {
				cam.err = err
				return
			}
			cam.summary, cam.err = sess.Wait()
		}()
	}
	wg.Wait()
	p := &pass{units: 1, marks: marks.finish()}
	for _, cam := range cameras {
		if cam.err != nil {
			return nil, cam.err
		}
	}
	for _, cam := range cameras {
		var tally stream.Summary
		for i := 0; i < cam.frames; i++ {
			due := cam.sched.due(i)
			if cam.seen[i] != 1 {
				p.wrong = append(p.wrong, fmt.Sprintf("%s frame %d has %d outcomes", cam.name, i+1, cam.seen[i]))
				continue
			}
			o := cam.outcomes[i]
			tally.Frames++
			answered := false
			switch o.Outcome {
			case stream.OutcomeServed:
				answered = true
				if o.Where == stream.WhereCloud {
					tally.ServedCloud++
				} else {
					tally.ServedEdge++
				}
			case stream.OutcomeCached:
				answered = true
				tally.DedupHits++
			case stream.OutcomeDropped:
				tally.Dropped++
			case stream.OutcomeRejectedOrder:
				tally.RejectedOrder++
			default:
				tally.Failed++
			}
			tr.add(spanClientFrame, fmt.Sprintf("%s-%d", cam.name, i+1), "", cam.sentAt[i], cam.gotAt[i])
			if due < warm {
				continue
			}
			p.attempted++
			p.latenessMs = append(p.latenessMs, ms(cam.sentAt[i].Sub(start.Add(due))))
			if !answered {
				if len(p.errs) < 5 {
					p.errs = append(p.errs, fmt.Sprintf("%s frame %d: %s %s", cam.name, i+1, o.Outcome, o.Error))
				}
				continue
			}
			// Latency runs from when the frame was due, so a stalled
			// sender charges its stall to the frames it delayed.
			lat := cam.gotAt[i].Sub(start.Add(due))
			p.ok++
			if lat <= sloLimit {
				p.withinSLO++
			}
			// Cached frames would make the latency population bimodal.
			p.samples = append(p.samples, opSample{done: cam.gotAt[i].Sub(windowStart), latMs: ms(lat),
				timed: o.Outcome == stream.OutcomeServed})
		}
		// Conservation: the outcomes the camera received add up to the
		// session's own summary.
		tally.Camera, tally.Tenant = cam.summary.Camera, cam.summary.Tenant
		if tally != cam.summary {
			p.wrong = append(p.wrong, fmt.Sprintf("%s: outcomes %+v, session summary %+v", cam.name, tally, cam.summary))
		}
	}
	sort.Float64s(p.latenessMs)

	after, err := readCounters(t, streamModel)
	if err != nil {
		return nil, err
	}
	p.counts = serveCounts(before, after)
	b, a := before.stream, after.stream
	if frames := float64(a.Frames - b.Frames); frames > 0 {
		p.counts["stream.dedup_share"] = float64(a.DedupHits-b.DedupHits) / frames
		p.counts["stream.drop_share"] = float64(a.Dropped-b.Dropped) / frames
	}
	if served := float64(a.ServedEdge + a.ServedCloud - b.ServedEdge - b.ServedCloud); served > 0 {
		p.counts["stream.offload_share"] = float64(a.ServedCloud-b.ServedCloud) / served
	}
	p.counts["stream.uplink_p50_ms"] = a.UplinkMs.P50
	p.counts["gen.lateness_p99_ms"] = percentile(p.latenessMs, 0.99)
	return p, nil
}

func (s *streamWorkload) verify(*tier) []string { return nil }

// workloads lists the benchmark's workloads in BENCHMARK.json order.
func workloads() []workload {
	return []workload{
		&onlineWorkload{label: "online_rpc", model: "ViT_Tiny", cfg: core.DeploymentConfig{
			// A batching window that has passed by the time it is armed: a
			// request is dispatched as soon as the batcher picks it up, so no
			// timer masks the per-request cost this workload exists to
			// expose. A sub-millisecond window does worse than mask it: an
			// idle Go runtime sleeps in epoll_wait, whose timeout is whole
			// milliseconds, and the run lands in one of two stable states
			// (see README.md).
			Platform: "A100", Models: []string{"ViT_Tiny"}, TimeScale: 0, QueueDelay: time.Nanosecond,
		}},
		&onlineWorkload{label: "online_frames", model: "ViT_Base", frameSize: 512, cfg: core.DeploymentConfig{
			Platform: "A100", Models: []string{"ViT_Base"}, TimeScale: 0, Preproc: "cpu",
		}},
		&streamWorkload{},
		&offlineWorkload{precision: "fp32"},
		&offlineWorkload{precision: "int8"},
	}
}

// streamFPS is the offered frame rate of all cameras together, tuned
// once so that the edge offloads between 5 % and 25 % of frames and no
// frame fails in any run (about 80 % of the edge's modeled capacity),
// then frozen.
const streamFPS = 150
