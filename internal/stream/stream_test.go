package stream_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"harvest/internal/core"
	"harvest/internal/imaging"
	"harvest/internal/serve"
	"harvest/internal/stats"
	"harvest/internal/stream"
	"harvest/internal/transfer"
)

// fakeBackend is a controllable local tier: fixed wait estimate,
// settable queue depth, and a submit counter.
type fakeBackend struct {
	wait    time.Duration
	depth   atomic.Int64
	submits atomic.Int64
	delay   time.Duration
}

func (f *fakeBackend) Submit(ctx context.Context, req *serve.Request) (*serve.Response, error) {
	f.submits.Add(1)
	if f.delay > 0 {
		select {
		case <-time.After(f.delay):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return &serve.Response{ID: req.ID, Model: req.Model, Items: req.Items,
		Outputs: [][]float32{{0, 1, 0}}, ComputeSeconds: 0.001}, nil
}

func (f *fakeBackend) EstimateWait(model string, items int) (time.Duration, error) {
	return f.wait, nil
}

func (f *fakeBackend) QueueDepth(model string) (int64, error) {
	return f.depth.Load(), nil
}

// frameBytes renders one PPM frame of the given kind and seed.
func frameBytes(t *testing.T, kind imaging.SyntheticKind, seed uint64, size int) []byte {
	t.Helper()
	im := imaging.Synthesize(size, size, kind, stats.NewRNG(seed))
	data, err := imaging.EncodeBytes(im, imaging.FormatPPM)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// nearIdentical perturbs ~10% of pixels by ±2: same scene to dHash.
func nearIdentical(t *testing.T, src []byte, seed uint64) []byte {
	t.Helper()
	im, err := imaging.DecodeBytes(src, imaging.FormatPPM)
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(seed)
	for i := range im.Pix {
		if rng.Intn(10) == 0 {
			v := int(im.Pix[i]) + rng.Intn(5) - 2
			if v < 0 {
				v = 0
			}
			if v > 255 {
				v = 255
			}
			im.Pix[i] = uint8(v)
		}
	}
	data, err := imaging.EncodeBytes(im, imaging.FormatPPM)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func newIngest(t *testing.T, cfg stream.Config) *stream.Ingest {
	t.Helper()
	if cfg.Model == "" {
		cfg.Model = "ViT_Tiny"
	}
	ing, err := stream.NewIngest(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ing
}

// collect returns an emit func feeding a buffered channel.
func collect(cap int) (func(stream.Outcome), chan stream.Outcome) {
	ch := make(chan stream.Outcome, cap)
	return func(o stream.Outcome) { ch <- o }, ch
}

func nextOutcome(t *testing.T, ch chan stream.Outcome) stream.Outcome {
	t.Helper()
	select {
	case o := <-ch:
		return o
	case <-time.After(5 * time.Second):
		t.Fatal("timed out waiting for outcome")
		return stream.Outcome{}
	}
}

func TestOutOfOrderFramesRejected(t *testing.T) {
	t.Parallel()
	fb := &fakeBackend{}
	ing := newIngest(t, stream.Config{Model: "ViT_Tiny", Local: fb, Budget: time.Second})
	sess, err := ing.Open("cam-a", "", "", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	emit, ch := collect(16)
	img := frameBytes(t, imaging.KindLeaf, 1, 48)

	sess.HandleFrame(context.Background(), stream.Frame{Seq: 1, Image: img, Format: "ppm"}, emit)
	if o := nextOutcome(t, ch); o.Outcome != stream.OutcomeServed {
		t.Fatalf("seq 1: got %q, want served", o.Outcome)
	}
	sess.HandleFrame(context.Background(), stream.Frame{Seq: 3, Image: img, Format: "ppm"}, emit)
	if o := nextOutcome(t, ch); o.Outcome != stream.OutcomeServed && o.Outcome != stream.OutcomeCached {
		t.Fatalf("seq 3: got %q, want served or cached", o.Outcome)
	}
	// Regressed and duplicate sequence numbers must be rejected, not
	// reordered or served.
	for _, seq := range []int64{2, 3, 1} {
		sess.HandleFrame(context.Background(), stream.Frame{Seq: seq, Image: img, Format: "ppm"}, emit)
		o := nextOutcome(t, ch)
		if o.Outcome != stream.OutcomeRejectedOrder {
			t.Fatalf("seq %d after 3: got %q, want rejected_order", seq, o.Outcome)
		}
		if o.Seq != seq {
			t.Fatalf("rejection for seq %d reported seq %d", seq, o.Seq)
		}
	}
	if got := sess.Summary().RejectedOrder; got != 3 {
		t.Fatalf("summary rejected_order = %d, want 3", got)
	}
	if got := fb.submits.Load(); got > 2 {
		t.Fatalf("rejected frames reached the backend: %d submits", got)
	}
}

// TestDropStaleNeverReachesBatcher drives a real (saturated-by-budget)
// serving tier: frames whose budget cannot cover even the batching
// window must be dropped at admission and never submitted — the server
// must count zero requests for them, i.e. a dropped frame never holds
// a batch slot.
func TestDropStaleNeverReachesBatcher(t *testing.T) {
	t.Parallel()
	srv, err := core.NewDeployment(core.DeploymentConfig{
		Platform:   "Jetson",
		Models:     []string{"ViT_Tiny"},
		QueueDelay: 5 * time.Millisecond,
		Preproc:    "cpu",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ing := newIngest(t, stream.Config{Model: "ViT_Tiny", Local: srv})
	// Budget below the 5ms batching window: the wait estimate alone
	// blows the deadline for every frame.
	sess, err := ing.Open("cam-tight", "", "", time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	emit, ch := collect(32)
	img := frameBytes(t, imaging.KindRows, 2, 48)
	const n = 8
	for i := 1; i <= n; i++ {
		sess.HandleFrame(context.Background(), stream.Frame{Seq: int64(i), Image: img, Format: "ppm"}, emit)
		o := nextOutcome(t, ch)
		if o.Outcome != stream.OutcomeDropped {
			t.Fatalf("frame %d: got %q, want frame_dropped", i, o.Outcome)
		}
	}
	sess.Close()
	m, err := srv.MetricsFor("ViT_Tiny")
	if err != nil {
		t.Fatal(err)
	}
	if m.Requests != 0 || m.Items != 0 {
		t.Fatalf("dropped frames reached the batcher: requests=%d items=%d", m.Requests, m.Items)
	}

	// Control: the same frame with a generous budget is admitted and
	// served — the gate sheds staleness, not traffic.
	sess2, err := ing.Open("cam-roomy", "", "", 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	sess2.HandleFrame(context.Background(), stream.Frame{Seq: 1, Image: img, Format: "ppm"}, emit)
	if o := nextOutcome(t, ch); o.Outcome != stream.OutcomeServed || o.Where != stream.WhereEdge {
		t.Fatalf("roomy frame: got %q/%q, want served/edge", o.Outcome, o.Where)
	}
	sess2.Close()
	m, err = srv.MetricsFor("ViT_Tiny")
	if err != nil {
		t.Fatal(err)
	}
	if m.Requests != 1 {
		t.Fatalf("served frame count: requests=%d, want 1", m.Requests)
	}
}

func TestDedupHitOnNearIdenticalMissOnDistinct(t *testing.T) {
	t.Parallel()
	fb := &fakeBackend{}
	ing := newIngest(t, stream.Config{
		Model: "ViT_Tiny", Local: fb,
		Budget: time.Second, DedupTTL: time.Minute,
	})
	sess, err := ing.Open("cam-d", "", "", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	emit, ch := collect(16)
	base := frameBytes(t, imaging.KindLeaf, 3, 64)

	sess.HandleFrame(context.Background(), stream.Frame{Seq: 1, Image: base, Format: "ppm"}, emit)
	first := nextOutcome(t, ch)
	if first.Outcome != stream.OutcomeServed {
		t.Fatalf("first frame: got %q, want served", first.Outcome)
	}

	// Near-identical frame: answered from cache, same classification,
	// no backend submit.
	before := fb.submits.Load()
	sess.HandleFrame(context.Background(), stream.Frame{Seq: 2, Image: nearIdentical(t, base, 99), Format: "ppm"}, emit)
	hit := nextOutcome(t, ch)
	if hit.Outcome != stream.OutcomeCached {
		t.Fatalf("near-identical frame: got %q, want cached", hit.Outcome)
	}
	if hit.DistanceBits > stream.DefaultDedupMaxHamming {
		t.Fatalf("cached hit at distance %d > max %d", hit.DistanceBits, stream.DefaultDedupMaxHamming)
	}
	if len(hit.Classification) != 1 || len(first.Classification) != 1 ||
		hit.Classification[0] != first.Classification[0] {
		t.Fatalf("cached classification %v != served %v", hit.Classification, first.Classification)
	}
	if fb.submits.Load() != before {
		t.Fatal("cache hit still submitted to the backend")
	}

	// Distinct content: a miss, served fresh.
	sess.HandleFrame(context.Background(), stream.Frame{Seq: 3,
		Image: frameBytes(t, imaging.KindFruit, 77, 64), Format: "ppm"}, emit)
	if o := nextOutcome(t, ch); o.Outcome != stream.OutcomeServed {
		t.Fatalf("distinct frame: got %q, want served", o.Outcome)
	}
	if fb.submits.Load() != before+1 {
		t.Fatalf("distinct frame submits = %d, want %d", fb.submits.Load(), before+1)
	}
	s := sess.Summary()
	if s.DedupHits != 1 || s.ServedEdge != 2 {
		t.Fatalf("summary hits=%d served_edge=%d, want 1/2", s.DedupHits, s.ServedEdge)
	}
}

// TestOffloadFlipsUnderQueuePressure checks the runtime decision: low
// local queue depth serves at the edge; past the threshold, frames
// ship to the cloud tier over the modeled link — and no admitted frame
// fails in either regime.
func TestOffloadFlipsUnderQueuePressure(t *testing.T) {
	t.Parallel()
	var cloudHits atomic.Int64
	cloud := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		cloudHits.Add(1)
		var body serve.InferRequestJSON
		if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		json.NewEncoder(w).Encode(serve.InferResponseJSON{
			ID: body.ID, Model: "ViT_Tiny", Items: 1, Classification: []int{2},
		})
	}))
	defer cloud.Close()

	fb := &fakeBackend{}
	pol := &stream.OffloadPolicy{
		Cloud:          serve.NewClient(cloud.URL),
		Link:           transfer.WiFi(),
		ChunkBytes:     64 << 10,
		QueueThreshold: 3,
		LinkTimeScale:  -1, // model the link, never sleep it in tests
	}
	ing := newIngest(t, stream.Config{
		Model: "ViT_Tiny", Local: fb, Budget: time.Second,
		DedupWindow: -1, // isolate the offload path from dedup
		Offload:     pol,
	})
	sess, err := ing.Open("cam-o", "", "", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	emit, ch := collect(64)

	frame := func(seq int64, seed uint64) stream.Frame {
		return stream.Frame{Seq: seq, Image: frameBytes(t, imaging.KindSoil, seed, 48), Format: "ppm"}
	}

	// Unloaded edge: local serving.
	for seq := int64(1); seq <= 3; seq++ {
		sess.HandleFrame(context.Background(), frame(seq, uint64(seq)), emit)
		o := nextOutcome(t, ch)
		if o.Outcome != stream.OutcomeServed || o.Where != stream.WhereEdge {
			t.Fatalf("unloaded frame %d: got %q/%q, want served/edge", seq, o.Outcome, o.Where)
		}
	}
	if cloudHits.Load() != 0 {
		t.Fatal("cloud hit while edge was unloaded")
	}

	// Queue pressure past the threshold: the decision flips to cloud.
	fb.depth.Store(5)
	for seq := int64(4); seq <= 7; seq++ {
		sess.HandleFrame(context.Background(), frame(seq, uint64(seq*13)), emit)
		o := nextOutcome(t, ch)
		if o.Outcome != stream.OutcomeServed || o.Where != stream.WhereCloud {
			t.Fatalf("pressured frame %d: got %q/%q (err %q), want served/cloud", seq, o.Outcome, o.Where, o.Error)
		}
		if o.UploadMs <= 0 {
			t.Fatalf("cloud frame %d has no modeled upload cost", seq)
		}
	}
	if cloudHits.Load() != 4 {
		t.Fatalf("cloud hits = %d, want 4", cloudHits.Load())
	}

	// Pressure relieved: back to the edge.
	fb.depth.Store(0)
	sess.HandleFrame(context.Background(), frame(8, 999), emit)
	if o := nextOutcome(t, ch); o.Outcome != stream.OutcomeServed || o.Where != stream.WhereEdge {
		t.Fatalf("relieved frame: got %q/%q, want served/edge", o.Outcome, o.Where)
	}

	s := sess.Summary()
	if s.Failed != 0 {
		t.Fatalf("admitted frames failed: %d", s.Failed)
	}
	if s.ServedEdge != 4 || s.ServedCloud != 4 {
		t.Fatalf("served edge/cloud = %d/%d, want 4/4", s.ServedEdge, s.ServedCloud)
	}
}

// TestStreamHTTPEndToEnd exercises the wire path: DialSession against
// Ingest.Handler, framed frames up, NDJSON outcomes and a summary down,
// one session per camera enforced with 409.
func TestStreamHTTPEndToEnd(t *testing.T) {
	t.Parallel()
	fb := &fakeBackend{}
	ing := newIngest(t, stream.Config{Model: "ViT_Tiny", Local: fb, Budget: time.Second})
	ts := httptest.NewServer(ing.Handler())
	defer ts.Close()

	sess, err := stream.DialSession(context.Background(), ts.Client(), ts.URL, "cam-1", "", "", 0)
	if err != nil {
		t.Fatal(err)
	}

	// A second session for the same camera must be refused while the
	// first is live.
	if _, err := stream.DialSession(context.Background(), ts.Client(), ts.URL, "cam-1", "", "", 0); err == nil {
		t.Fatal("duplicate camera session accepted")
	} else {
		var se *stream.SessionError
		if !asSessionError(err, &se) || se.Status != http.StatusConflict {
			t.Fatalf("duplicate session error = %v, want HTTP 409", err)
		}
	}

	base := frameBytes(t, imaging.KindLeaf, 5, 48)
	frames := [][]byte{base, nearIdentical(t, base, 8), frameBytes(t, imaging.KindRows, 6, 48)}
	var outs []stream.Outcome
	var mu sync.Mutex
	done := make(chan struct{})
	go func() {
		defer close(done)
		for o := range sess.Outcomes() {
			mu.Lock()
			outs = append(outs, o)
			mu.Unlock()
		}
	}()
	for i, img := range frames {
		if err := sess.Send(stream.Frame{Seq: int64(i + 1), Image: img, Format: "ppm"}); err != nil {
			t.Fatal(err)
		}
		// Pace so the dedup insert from frame 1 lands before frame 2.
		time.Sleep(20 * time.Millisecond)
	}
	if err := sess.CloseSend(); err != nil {
		t.Fatal(err)
	}
	summary, err := sess.Wait()
	if err != nil {
		t.Fatal(err)
	}
	<-done
	if summary.Frames != 3 {
		t.Fatalf("summary frames = %d, want 3", summary.Frames)
	}
	if summary.ServedEdge+summary.DedupHits != 3 || summary.Failed != 0 {
		t.Fatalf("summary served=%d hits=%d failed=%d", summary.ServedEdge, summary.DedupHits, summary.Failed)
	}
	if summary.DedupHits < 1 {
		t.Fatalf("near-identical frame missed the dedup cache: %+v", summary)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(outs) != 3 {
		t.Fatalf("got %d outcome lines, want 3", len(outs))
	}

	// The camera freed on close: a new session may open.
	sess2, err := stream.DialSession(context.Background(), ts.Client(), ts.URL, "cam-1", "", "", 0)
	if err != nil {
		t.Fatalf("camera not released after close: %v", err)
	}
	sess2.CloseSend()
	sess2.Wait()
}

// TestStreamHugeBudgetIsServed: a budget_ms past the largest Duration
// (~9.2e12 ms) is a very long budget, not one that wrapped negative and
// fell back to the ingest default, which this frame's wait estimate
// exceeds.
func TestStreamHugeBudgetIsServed(t *testing.T) {
	t.Parallel()
	fb := &fakeBackend{wait: 50 * time.Millisecond}
	ing := newIngest(t, stream.Config{Model: "ViT_Tiny", Local: fb, Budget: 10 * time.Millisecond})
	ts := httptest.NewServer(ing.Handler())
	defer ts.Close()

	body := frameBody(1, "ppm", frameBytes(t, imaging.KindLeaf, 1, 16))
	outs, _ := postFrames(t, ts.Client(), ts.URL+"/v2/streams/cam-1?budget_ms=1e13", bytes.NewReader(body))
	if len(outs) != 1 || outs[0].Outcome != stream.OutcomeServed {
		t.Errorf("budget_ms 1e13: outcomes %+v, want one served", outs)
	}
}

// TestStreamBudgetParse: budget_ms is the whole string as a positive
// finite number. A trailing unit, a decimal comma or trailing garbage
// used to parse as its numeric prefix, and Inf as an unbounded budget.
func TestStreamBudgetParse(t *testing.T) {
	t.Parallel()
	ing := newIngest(t, stream.Config{Model: "ViT_Tiny", Local: &fakeBackend{}, Budget: 10 * time.Millisecond})
	ts := httptest.NewServer(ing.Handler())
	defer ts.Close()
	for i, tc := range []struct {
		budget string
		want   int
	}{
		{"16.7", http.StatusOK},
		{"1e13", http.StatusOK},
		{"5ms", http.StatusBadRequest},
		{"1,5", http.StatusBadRequest},
		{"1e3x", http.StatusBadRequest},
		{"Inf", http.StatusBadRequest},
		{"%2BInf", http.StatusBadRequest},
		{"infinity", http.StatusBadRequest},
		{"1e400", http.StatusBadRequest},
		{"NaN", http.StatusBadRequest},
		{"0", http.StatusBadRequest},
		{"-1", http.StatusBadRequest},
	} {
		resp, err := ts.Client().Post(fmt.Sprintf("%s/v2/streams/cam-%d?budget_ms=%s", ts.URL, i, tc.budget),
			stream.FramesContentType, strings.NewReader(""))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("budget_ms=%s: HTTP %d, want %d", tc.budget, resp.StatusCode, tc.want)
		}
	}
}

// asSessionError unwraps err into a *SessionError.
func asSessionError(err error, target **stream.SessionError) bool {
	se, ok := err.(*stream.SessionError)
	if ok {
		*target = se
	}
	return ok
}

// stuckBackend's Submit ignores context cancellation and completes only
// when released — a frame occupying the serving tier long after its
// camera has gone away.
type stuckBackend struct {
	submits atomic.Int64
	release chan struct{}
}

func (b *stuckBackend) Submit(ctx context.Context, req *serve.Request) (*serve.Response, error) {
	b.submits.Add(1)
	<-b.release
	return &serve.Response{ID: req.ID, Model: req.Model, Items: req.Items}, nil
}
func (b *stuckBackend) EstimateWait(model string, items int) (time.Duration, error) { return 0, nil }
func (b *stuckBackend) QueueDepth(model string) (int64, error)                      { return 0, nil }

// TestStreamReconnectAfterDisconnect is the session-leak regression
// test: a camera whose connection dies mid-stream — with a frame still
// in flight on the serving tier — must be able to reconnect immediately
// instead of getting 409 ErrSessionActive against its own dead session.
func TestStreamReconnectAfterDisconnect(t *testing.T) {
	t.Parallel()
	bk := &stuckBackend{release: make(chan struct{})}
	ing := newIngest(t, stream.Config{Model: "ViT_Tiny", Local: bk, Budget: time.Minute})
	ts := httptest.NewServer(ing.Handler())
	defer ts.Close()
	// Registered after ts.Close so it runs first: ts.Close waits for the
	// stuck handler, which only exits once the backend is released.
	defer close(bk.release)

	ctx, cancel := context.WithCancel(context.Background())
	sess, err := stream.DialSession(ctx, ts.Client(), ts.URL, "cam-r", "", "farm-a", 0)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for range sess.Outcomes() {
		}
	}()
	if err := sess.Send(stream.Frame{Seq: 1, Image: frameBytes(t, imaging.KindLeaf, 3, 48), Format: "ppm"}); err != nil {
		t.Fatal(err)
	}
	// Wait until the frame is parked on the serving tier.
	deadline := time.Now().Add(5 * time.Second)
	for bk.submits.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("frame never reached the backend")
		}
		time.Sleep(time.Millisecond)
	}
	// The camera disconnects mid-stream: the server's body read errors
	// while the submitted frame is still in flight.
	cancel()

	// Reconnecting must succeed promptly — the dying session detaches the
	// camera ID on disconnect, before waiting out its in-flight frame.
	var sess2 *stream.ClientSession
	deadline = time.Now().Add(5 * time.Second)
	for {
		sess2, err = stream.DialSession(context.Background(), ts.Client(), ts.URL, "cam-r", "", "farm-a", 0)
		if err == nil {
			break
		}
		var se *stream.SessionError
		if !asSessionError(err, &se) || se.Status != http.StatusConflict {
			t.Fatalf("reconnect failed with non-409: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatalf("camera still 409-conflicted after disconnect: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The old frame must still be stuck: reconnection worked *while* the
	// previous session had work in flight, not after it drained.
	if bk.submits.Load() != 1 {
		t.Fatalf("backend submits = %d, want the one stuck frame", bk.submits.Load())
	}
	if err := sess2.CloseSend(); err != nil {
		t.Fatal(err)
	}
	if _, err := sess2.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestStreamTenantAccounting: the tenant tag on a session shows up in
// the session summary and the ingest tier's per-tenant stats.
func TestStreamTenantAccounting(t *testing.T) {
	t.Parallel()
	fb := &fakeBackend{}
	ing := newIngest(t, stream.Config{Model: "ViT_Tiny", Local: fb, Budget: time.Second})
	ts := httptest.NewServer(ing.Handler())
	defer ts.Close()

	sess, err := stream.DialSession(context.Background(), ts.Client(), ts.URL, "cam-t", "", "farm-b", 0)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for range sess.Outcomes() {
		}
	}()
	if err := sess.Send(stream.Frame{Seq: 1, Image: frameBytes(t, imaging.KindRows, 9, 48), Format: "ppm"}); err != nil {
		t.Fatal(err)
	}
	if err := sess.CloseSend(); err != nil {
		t.Fatal(err)
	}
	summary, err := sess.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if summary.Tenant != "farm-b" {
		t.Errorf("summary tenant %q, want farm-b", summary.Tenant)
	}
	st := ing.TenantStats()
	if st["farm-b"].Sessions != 1 || st["farm-b"].Frames != 1 || st["farm-b"].Served != 1 {
		t.Errorf("tenant stream stats %+v", st["farm-b"])
	}
}

// TestStreamLineCapFailsOnce: a frame header declaring more than
// DefaultMaxFrameBytes ends the session with exactly one failed "read:"
// outcome, reaches no backend, and frees the camera to redial. The
// header is refused before any payload byte is read: the body stays
// open with none sent, and the answer still arrives.
func TestStreamLineCapFailsOnce(t *testing.T) {
	t.Parallel()
	fb := &fakeBackend{}
	ing := newIngest(t, stream.Config{Model: "ViT_Tiny", Local: fb, Budget: time.Second})
	ts := httptest.NewServer(ing.Handler())
	defer ts.Close()

	pr, pw := io.Pipe()
	defer pw.Close()
	go fmt.Fprintf(pw, "{\"seq\":1,\"format\":\"ppm\",\"image_bytes\":%d}\n", stream.DefaultMaxFrameBytes+1)
	// A server waiting for the payload would never answer.
	hc := *ts.Client()
	hc.Timeout = 10 * time.Second
	failed, summary := postFrames(t, &hc, ts.URL+"/v2/streams/cam-big", pr)
	if len(failed) != 1 || failed[0].Outcome != stream.OutcomeFailed || !strings.HasPrefix(failed[0].Error, "read:") {
		t.Fatalf("outcomes %+v, want one failed read: line", failed)
	}
	if summary.Frames != 0 {
		t.Fatalf("summary %+v, want 0 frames", summary)
	}
	if n := fb.submits.Load(); n != 0 {
		t.Fatalf("backend submits = %d, want 0", n)
	}
	sess, err := stream.DialSession(context.Background(), ts.Client(), ts.URL, "cam-big", "", "", 0)
	if err != nil {
		t.Fatalf("camera not released after the oversize frame: %v", err)
	}
	sess.CloseSend()
	sess.Wait()
}
