package stream

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"harvest/internal/energy"
	"harvest/internal/hw"
	"harvest/internal/imaging"
	"harvest/internal/serve"
	"harvest/internal/stats"
	"harvest/internal/transfer"
)

// pricedBackend is an edge that serves at once and reports a fixed
// queue depth and wait estimate: the two numbers Decide reads.
type pricedBackend struct {
	depth   int64
	wait    time.Duration
	submits atomic.Int64
}

func (b *pricedBackend) Submit(_ context.Context, req *serve.Request) (*serve.Response, error) {
	b.submits.Add(1)
	return &serve.Response{ID: req.ID, Model: req.Model, Items: 1, Outputs: [][]float32{{0, 1}}}, nil
}

func (b *pricedBackend) EstimateWait(string, int) (time.Duration, error) { return b.wait, nil }
func (b *pricedBackend) QueueDepth(string) (int64, error)                { return b.depth, nil }

// TestDecideJoinsTheShorterQueue pins the offload decision on the
// benchmark's own numbers: a 96×96 PPM frame (27,663 bytes) occupies the
// LTE radio for 22.45 ms, the edge prices its queue at 20 ms.
func TestDecideJoinsTheShorterQueue(t *testing.T) {
	const frameBytes, threshold = 27663, 2
	lte := transfer.LTE()
	transmit := time.Duration(lte.TransmitOnlySeconds(frameBytes, 64<<10) * float64(time.Second))
	rtt := time.Duration(lte.RTTSeconds * float64(time.Second))
	const ms = time.Millisecond
	cases := []struct {
		name                string
		depth, occupancy    int64
		estLocal, remaining time.Duration
		scale               float64
		power               bool
		cloud               bool
		reason              string
		estWait             time.Duration
	}{
		{name: "below threshold", depth: 1, estLocal: 20 * ms, remaining: time.Second},
		{name: "idle radio", depth: 2, estLocal: 20 * ms, remaining: time.Second,
			cloud: true, reason: "queue", estWait: transmit + rtt},
		{name: "one frame on the radio outweighs the edge", depth: 2, occupancy: 1, estLocal: 20 * ms, remaining: time.Second},
		{name: "one frame on the radio, longer edge queue", depth: 5, occupancy: 1, estLocal: 30 * ms, remaining: time.Second,
			cloud: true, reason: "queue", estWait: 2*transmit + rtt},
		{name: "radio backlog past the budget", depth: 9, occupancy: 50, estLocal: 200 * ms, remaining: time.Second},
		{name: "edge cannot make it, radio full", depth: 9, occupancy: 50, estLocal: 2 * time.Second, remaining: time.Second,
			cloud: true, reason: "queue", estWait: 51*transmit + rtt},
		{name: "deadline below threshold", depth: 0, occupancy: 50, estLocal: 2 * time.Second, remaining: time.Second,
			cloud: true, reason: "deadline", estWait: 51*transmit + rtt},
		{name: "power ignores the radio", depth: 0, occupancy: 50, estLocal: 20 * ms, remaining: time.Second, power: true,
			cloud: true, reason: "power", estWait: 51*transmit + rtt},
		{name: "unslept link has no backlog", depth: 2, occupancy: 50, estLocal: 20 * ms, remaining: time.Second, scale: -1,
			cloud: true, reason: "queue"},
	}
	for _, tc := range cases {
		p := &OffloadPolicy{Cloud: serve.NewClient("http://127.0.0.1:0"), Link: lte, ChunkBytes: 64 << 10,
			QueueThreshold: threshold, LinkTimeScale: tc.scale}
		if tc.power {
			// Idle draw alone (30 % of the platform's power) is over this budget.
			p.Power, p.EdgePowerBudgetW = energy.New(&hw.Platform{PowerW: 30}), 5
		}
		p.uplinkBusy.Store(tc.occupancy)
		d := p.Decide(&pricedBackend{depth: tc.depth}, "m", frameBytes, tc.estLocal, tc.remaining)
		if d.Cloud != tc.cloud || d.Reason != tc.reason {
			t.Errorf("%s: cloud=%v reason=%q, want %v %q", tc.name, d.Cloud, d.Reason, tc.cloud, tc.reason)
		}
		if diff := d.EstWait - tc.estWait; diff < -time.Microsecond || diff > time.Microsecond {
			t.Errorf("%s: EstWait %v, want %v", tc.name, d.EstWait, tc.estWait)
		}
		if d.QueueDepth != tc.depth {
			t.Errorf("%s: QueueDepth %d, want %d", tc.name, d.QueueDepth, tc.depth)
		}
	}
}

// TestBurstAfterStallIsServedNotDropped replays what a host stall does
// to a session: 60 frames back to back with a 1 s budget, the edge at
// its offload threshold and pricing itself at 20 ms, the radio busy
// throughout. Priced onto the uplink alone, the 43rd frame on estimates
// past the budget and is dropped; joining the shorter queue serves all.
func TestBurstAfterStallIsServedNotDropped(t *testing.T) {
	cloud := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		_ = json.NewEncoder(w).Encode(serve.InferResponseJSON{Model: "ViT_Tiny", Items: 1, Classification: []int{1}})
	}))
	defer cloud.Close()
	edge := &pricedBackend{depth: 2, wait: 20 * time.Millisecond}
	pol := &OffloadPolicy{Cloud: serve.NewClient(cloud.URL), Link: transfer.LTE(), ChunkBytes: 64 << 10, QueueThreshold: 2}
	ing, err := NewIngest(Config{Model: "ViT_Tiny", Local: edge, Budget: time.Second, DedupWindow: -1, Offload: pol})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := ing.Open("cam-burst", "", "", 0)
	if err != nil {
		t.Fatal(err)
	}
	img, err := imaging.EncodeBytes(imaging.Synthesize(96, 96, imaging.KindRows, stats.NewRNG(1)), imaging.FormatPPM)
	if err != nil {
		t.Fatal(err)
	}
	const n = 60
	outcomes := make(chan Outcome, n)
	pol.uplinkMu.Lock() // what reaches the radio during the burst queues on it
	for seq := int64(1); seq <= n; seq++ {
		// Back to back: a frame bound for the radio counts there before
		// the next one is decided, whether or not its goroutine has run.
		sess.HandleFrame(context.Background(), Frame{Seq: seq, Image: img, Format: "ppm"}, func(o Outcome) { outcomes <- o })
	}
	pol.uplinkMu.Unlock()
	sess.Close() // returns once every frame has its outcome
	close(outcomes)
	for o := range outcomes {
		if o.Outcome != OutcomeServed {
			t.Errorf("frame %d: %s at %s: %s", o.Seq, o.Outcome, o.Where, o.Error)
		}
	}
	s := sess.Summary()
	want := Summary{Camera: "cam-burst", Tenant: s.Tenant, Frames: n, ServedEdge: n - 1, ServedCloud: 1}
	if s != want {
		t.Errorf("summary %+v, want %+v", s, want)
	}
	if got := edge.submits.Load(); got != s.ServedEdge {
		t.Errorf("edge served %d frames, the session counted %d", got, s.ServedEdge)
	}
}
