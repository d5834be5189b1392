package stream_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
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
)

// frameBody renders one frame as the session wire carries it: a JSON
// header line, then the raw image bytes.
func frameBody(seq int64, format string, img []byte) []byte {
	b := fmt.Appendf(nil, "{\"seq\":%d,\"format\":%q,\"image_bytes\":%d}\n", seq, format, len(img))
	return append(b, img...)
}

// postFrames posts body as a whole session and returns its outcome
// lines and the summary, which must come last and exactly once.
func postFrames(t *testing.T, hc *http.Client, url string, body io.Reader) ([]stream.Outcome, stream.Summary) {
	t.Helper()
	resp, err := hc.Post(url, stream.FramesContentType, body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		t.Fatalf("HTTP %d: %s", resp.StatusCode, msg)
	}
	var outs []stream.Outcome
	var summary *stream.Summary
	dec := json.NewDecoder(resp.Body)
	for dec.More() {
		var line struct {
			stream.Outcome
			Summary *stream.Summary `json:"summary"`
		}
		if err := dec.Decode(&line); err != nil {
			t.Fatal(err)
		}
		if summary != nil {
			t.Fatalf("line %+v after the summary", line)
		}
		if line.Summary != nil {
			summary = line.Summary
			continue
		}
		outs = append(outs, line.Outcome)
	}
	if summary == nil {
		t.Fatalf("no summary line after outcomes %+v", outs)
	}
	return outs, *summary
}

// isReadFailure reports the outcome that ends a session whose byte
// stream could not be read on.
func isReadFailure(o stream.Outcome) bool {
	return o.Outcome == stream.OutcomeFailed && strings.HasPrefix(o.Error, "read:")
}

// TestStreamWireRefusals is the session wire's refusal table. A body
// of another media type is refused with 415 before a session opens. A
// header that is too long, does not parse or declares a length outside
// [0, DefaultMaxFrameBytes], and a body that ends inside a frame, end
// the session with one failed "read:" outcome after the whole frames
// before them were answered; the broken frame reaches no backend.
func TestStreamWireRefusals(t *testing.T) {
	t.Parallel()
	fb := &fakeBackend{}
	ing := newIngest(t, stream.Config{Model: "ViT_Tiny", Local: fb, Budget: time.Second, DedupWindow: -1})
	ts := httptest.NewServer(ing.Handler())
	defer ts.Close()

	good := frameBody(1, "ppm", frameBytes(t, imaging.KindLeaf, 1, 16))
	for _, ct := range []string{"application/x-ndjson", "application/json", ""} {
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v2/streams/cam-ct", bytes.NewReader(good))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", ct)
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusUnsupportedMediaType {
			t.Errorf("Content-Type %q: HTTP %d, want 415", ct, resp.StatusCode)
		}
	}
	if n := fb.submits.Load(); n != 0 || ing.ActiveSessions() != 0 {
		t.Fatalf("a refused media type opened a session: %d submits, %d sessions", n, ing.ActiveSessions())
	}

	second := frameBody(2, "ppm", frameBytes(t, imaging.KindRows, 2, 16))
	for i, tc := range []struct {
		name    string
		body    []byte
		served  int
		refused bool
	}{
		{"two whole frames", append(append([]byte{}, good...), second...), 2, false},
		{"empty body", nil, 0, false},
		{"header over the line cap",
			[]byte(`{"seq":1,"pad":"` + strings.Repeat("x", stream.MaxFrameHeaderBytes) + "\"}\n"), 0, true},
		{"header not JSON", []byte("seq=1 image_bytes=16\n"), 0, true},
		{"negative image_bytes", []byte(`{"seq":1,"image_bytes":-1}` + "\n"), 0, true},
		{"fractional image_bytes", []byte(`{"seq":1,"image_bytes":1.5}` + "\n"), 0, true},
		{"string image_bytes", []byte(`{"seq":1,"image_bytes":"16"}` + "\n"), 0, true},
		{"image_bytes past int64", []byte(`{"seq":1,"image_bytes":99999999999999999999}` + "\n"), 0, true},
		{"image_bytes over the cap",
			fmt.Appendf(nil, "{\"seq\":1,\"image_bytes\":%d}\n", stream.DefaultMaxFrameBytes+1), 0, true},
		{"body ends mid-header", []byte(`{"seq":1,"image_bytes":`), 0, true},
		{"body ends mid-payload", good[:len(good)-10], 0, true},
		{"trailing bytes after the last frame", append(append([]byte{}, good...), "x"...), 1, true},
		{"bad header after a whole frame", append(append([]byte{}, good...), "{\n"...), 1, true},
	} {
		before := fb.submits.Load()
		outs, summary := postFrames(t, ts.Client(), fmt.Sprintf("%s/v2/streams/cam-%d", ts.URL, i), bytes.NewReader(tc.body))
		if tc.refused {
			if len(outs) == 0 || !isReadFailure(outs[len(outs)-1]) {
				t.Errorf("%s: outcomes %+v, want a failed read: last", tc.name, outs)
				continue
			}
			outs = outs[:len(outs)-1]
		}
		served := 0
		for _, o := range outs {
			if o.Outcome == stream.OutcomeServed {
				served++
			}
		}
		if len(outs) != tc.served || served != tc.served || summary.Frames != int64(tc.served) {
			t.Errorf("%s: frame outcomes %+v, summary %+v; want %d served", tc.name, outs, summary, tc.served)
		}
		if n := fb.submits.Load() - before; n != int64(tc.served) {
			t.Errorf("%s: %d backend submits, want %d", tc.name, n, tc.served)
		}
	}
	if n := ing.ActiveSessions(); n != 0 {
		t.Errorf("%d sessions still hold their camera", n)
	}
}

// TestStreamThroughRouter dials a session through serve.Router's
// /v2/streams/{camera} proxy onto a two-replica tier: the framed body
// crosses the proxy intact, and served outcomes and a summary that
// matches them come back.
func TestStreamThroughRouter(t *testing.T) {
	t.Parallel()
	tier, err := core.StartTier(core.DeploymentConfig{
		Platform: "A100",
		Models:   []string{"ViT_Tiny"},
		Preproc:  "cpu",
		Stream:   &core.StreamConfig{Budget: 5 * time.Second},
	}, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer tier.Close()
	ctx := context.Background()
	if err := serve.NewClient(tier.URL).WaitReady(ctx); err != nil {
		t.Fatal(err)
	}
	sess, err := stream.DialSession(ctx, nil, tier.URL, "cam-routed", "", "", 0)
	if err != nil {
		t.Fatal(err)
	}
	var outs []stream.Outcome
	done := make(chan struct{})
	go func() {
		defer close(done)
		for o := range sess.Outcomes() {
			outs = append(outs, o)
		}
	}()
	kinds := []imaging.SyntheticKind{imaging.KindLeaf, imaging.KindRows, imaging.KindFruit, imaging.KindSoil}
	for i, kind := range kinds {
		if err := sess.Send(stream.Frame{Seq: int64(i + 1), Image: frameBytes(t, kind, uint64(i), 48), Format: "ppm"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := sess.CloseSend(); err != nil {
		t.Fatal(err)
	}
	summary, err := sess.Wait()
	if err != nil {
		t.Fatal(err)
	}
	<-done
	var served, cached int64
	for _, o := range outs {
		switch o.Outcome {
		case stream.OutcomeServed:
			served++
		case stream.OutcomeCached:
			cached++
		default:
			t.Errorf("frame %d: %s (%s), want served or cached", o.Seq, o.Outcome, o.Error)
		}
	}
	if len(outs) != len(kinds) || summary.Camera != "cam-routed" || summary.Frames != int64(len(kinds)) ||
		summary.ServedEdge != served || summary.DedupHits != cached || summary.Failed != 0 {
		t.Errorf("summary %+v against %d outcomes (%d served, %d cached)", summary, len(outs), served, cached)
	}
	if got := tier.Router.Metrics(ctx).Router.Streams; got != 1 {
		t.Errorf("router proxied %d streams, want 1", got)
	}
}

// idBackend is a fakeBackend that also records each request's ID.
type idBackend struct {
	fakeBackend
	mu  sync.Mutex
	ids []string
}

func (b *idBackend) Submit(ctx context.Context, req *serve.Request) (*serve.Response, error) {
	b.mu.Lock()
	b.ids = append(b.ids, req.ID)
	b.mu.Unlock()
	return b.fakeBackend.Submit(ctx, req)
}

// wholeFrames walks body as the wire defines it, independently of the
// handler, and returns the seq of every whole frame before the first
// refusal, and whether there was one.
func wholeFrames(body []byte) (seqs []int64, refused bool) {
	for len(body) > 0 {
		i := bytes.IndexByte(body, '\n')
		if i < 0 || i >= stream.MaxFrameHeaderBytes {
			return seqs, true
		}
		var h struct {
			Seq        int64  `json:"seq"`
			Format     string `json:"format"`
			ImageBytes int64  `json:"image_bytes"`
		}
		if json.Unmarshal(body[:i+1], &h) != nil || h.ImageBytes < 0 ||
			h.ImageBytes > stream.DefaultMaxFrameBytes || h.ImageBytes > int64(len(body)-i-1) {
			return seqs, true
		}
		seqs = append(seqs, h.Seq)
		body = body[i+1+int(h.ImageBytes):]
	}
	return seqs, false
}

// FuzzStreamFrames posts arbitrary bodies as whole sessions. Nothing
// may panic; every whole frame gets exactly one outcome and no frame
// behind a refused header reaches the backend; a refusal ends the
// session with one failed "read:" outcome; the summary comes last.
func FuzzStreamFrames(f *testing.F) {
	im := imaging.Synthesize(16, 16, imaging.KindLeaf, stats.NewRNG(1))
	img, err := imaging.EncodeBytes(im, imaging.FormatPPM)
	if err != nil {
		f.Fatal(err)
	}
	good := frameBody(1, "ppm", img)
	f.Add(append(append([]byte{}, good...), frameBody(2, "ppm", img)...))
	f.Add(good[:len(good)-5])
	f.Add(fmt.Appendf(nil, "{\"seq\":1,\"image_bytes\":%d}\n", stream.DefaultMaxFrameBytes+1))
	f.Add([]byte("{\"seq\":1,\"image_bytes\":\n"))

	fb := &idBackend{}
	ing, err := stream.NewIngest(stream.Config{Model: "ViT_Tiny", Local: fb, Budget: time.Minute})
	if err != nil {
		f.Fatal(err)
	}
	ts := httptest.NewServer(ing.Handler())
	f.Cleanup(ts.Close)
	var sessions atomic.Int64
	f.Fuzz(func(t *testing.T, body []byte) {
		camera := fmt.Sprintf("cam-%d", sessions.Add(1))
		fb.mu.Lock()
		fb.ids = fb.ids[:0]
		fb.mu.Unlock()
		seqs, refused := wholeFrames(body)
		outs, summary := postFrames(t, ts.Client(), ts.URL+"/v2/streams/"+camera, bytes.NewReader(body))
		if refused {
			if len(outs) == 0 || !isReadFailure(outs[len(outs)-1]) {
				t.Fatalf("refused body: outcomes %+v, want a failed read: last", outs)
			}
			outs = outs[:len(outs)-1]
		}
		for _, o := range outs {
			if isReadFailure(o) {
				t.Fatalf("read failure %+v before the end of the outcomes", o)
			}
		}
		if len(outs) != len(seqs) || summary.Frames != int64(len(seqs)) {
			t.Fatalf("%d whole frames, %d outcomes, summary %+v", len(seqs), len(outs), summary)
		}
		whole := map[string]bool{}
		for _, seq := range seqs {
			whole[camera+"-"+strconv.FormatInt(seq, 10)] = true
		}
		fb.mu.Lock()
		defer fb.mu.Unlock()
		for _, id := range fb.ids {
			if !whole[id] {
				t.Fatalf("request %s reached the backend but is no whole frame of %v", id, seqs)
			}
		}
	})
}
