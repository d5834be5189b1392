package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"harvest/internal/imaging"
	"harvest/internal/preprocess"
	"harvest/internal/stats"
)

// recordingPreproc is the model's preprocessor with a ledger: the hash
// of every encoded item it was handed, taken before and after the real
// engine ran on it.
type recordingPreproc struct {
	preprocess.Engine
	mu     sync.Mutex
	hashes [][sha256.Size]byte
	// moved counts items whose bytes changed while being processed.
	moved int
}

func (p *recordingPreproc) ProcessBatch(items []preprocess.Item) (preprocess.Result, error) {
	before := make([][sha256.Size]byte, len(items))
	for i, it := range items {
		before[i] = sha256.Sum256(it.Encoded)
	}
	res, err := p.Engine.ProcessBatch(items)
	p.mu.Lock()
	defer p.mu.Unlock()
	for i, it := range items {
		if sha256.Sum256(it.Encoded) != before[i] {
			p.moved++
		}
	}
	p.hashes = append(p.hashes, before...)
	return res, err
}

// take returns the ledger and clears it.
func (p *recordingPreproc) take() [][sha256.Size]byte {
	p.mu.Lock()
	defer p.mu.Unlock()
	h := p.hashes
	p.hashes = nil
	return h
}

// testFrame is a w×h PPM whose pixels follow the seed.
func testFrame(t testing.TB, w, h int, seed uint64) []byte {
	t.Helper()
	data, err := imaging.EncodeBytes(imaging.Synthesize(w, h, imaging.KindLeaf, stats.NewRNG(seed)), imaging.FormatPPM)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// wireBody is one body as a test puts it on the wire: JSON, then raw
// parts, and the header length to declare (< 0: none).
type wireBody struct {
	headerLen int
	bytes     []byte
}

// binaryBody frames req the way Client.Infer does.
func binaryBody(t testing.TB, req InferRequestJSON) wireBody {
	t.Helper()
	f, err := encodeInfer(&req)
	if err != nil {
		t.Fatal(err)
	}
	b := wireBody{len(f.hdr), append(append([]byte(nil), f.hdr...), bytes.Join(f.parts, nil)...)}
	if len(f.parts) == 0 {
		b.headerLen = -1 // a payload-free request goes out as plain JSON
	}
	return b
}

// readInferResponse decodes a recorded 200 the way Client.Infer does.
func readInferResponse(t testing.TB, w *httptest.ResponseRecorder) *InferResponseJSON {
	t.Helper()
	resp := w.Result()
	var out responseHeader
	buf, err := decodeInfer(resp.Body, resp.Header, resp.ContentLength, wireLimits{}, &wirePool, &out)
	buf.release()
	if err != nil {
		t.Fatal(err)
	}
	return &out.InferResponseJSON
}

// postWire serves one infer POST in process.
func postWire(h http.Handler, model string, b wireBody) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, FormatInferPath(model), bytes.NewReader(b.bytes))
	if b.headerLen >= 0 {
		req.Header.Set(InferHeaderLength, strconv.Itoa(b.headerLen))
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
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

// TestWireFramingsAreEquivalent sends each kind of request three ways:
// as plain JSON (payload as images_b64 or inputs), as the same JSON with
// its length declared (the "header is the whole body" case), and with
// the payload as binary parts. All three must decode to the same
// request, hand the preprocessor the same bytes, and get the same
// answer with bit-equal logits.
func TestWireFramingsAreEquivalent(t *testing.T) {
	cfg, pre := preprocConfig(t)
	rec := &recordingPreproc{Engine: pre}
	cfg.Preproc = rec
	s := newTestServer(t, cfg)
	h := s.Handler()

	frames := [][]byte{testFrame(t, 57, 43, 1), testFrame(t, 40, 64, 2), testFrame(t, 33, 33, 3)}
	var items []preprocess.Item
	for _, f := range frames[:2] {
		items = append(items, preprocess.Item{Encoded: f, Format: imaging.FormatPPM})
	}
	res, err := pre.ProcessBatch(items)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		req  InferRequestJSON
	}{
		{"items only", InferRequestJSON{Items: 2, Class: "offline"}},
		{"one image", InferRequestJSON{Images: frames[:1], ImageFormat: "ppm"}},
		{"three images", InferRequestJSON{Images: frames, ImageFormat: "ppm", Items: 3, DeadlineMs: 60000}},
		{"tensors", InferRequestJSON{Inputs: res.Tensors, Class: "realtime", DeadlineMs: 60000}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.req.ID, tc.req.Tenant = "eq-"+strings.ReplaceAll(tc.name, " ", "-"), "farm-a"
			plain, err := json.Marshal(tc.req)
			if err != nil {
				t.Fatal(err)
			}
			var first *InferResponseJSON
			var firstSeen [][sha256.Size]byte
			for _, fr := range []struct {
				name string
				body wireBody
			}{
				{"json", wireBody{-1, plain}},
				{"json, length declared", wireBody{len(plain), plain}},
				{"binary parts", binaryBody(t, tc.req)},
			} {
				// The decoded request.
				hr := httptest.NewRequest(http.MethodPost, FormatInferPath("imagenet"), bytes.NewReader(fr.body.bytes))
				if fr.body.headerLen >= 0 {
					hr.Header.Set(InferHeaderLength, strconv.Itoa(fr.body.headerLen))
				}
				got, buf, ok := readInfer(httptest.NewRecorder(), hr, inferLimits(cfg))
				if !ok {
					t.Fatalf("%s: readInfer refused the body", fr.name)
				}
				if !reflect.DeepEqual(got, tc.req) {
					t.Errorf("%s: decoded %+v, want %+v", fr.name, got, tc.req)
				}
				buf.release()

				// The answer.
				w := postWire(h, "imagenet", fr.body)
				if w.Code != http.StatusOK {
					t.Fatalf("%s: HTTP %d: %s", fr.name, w.Code, w.Body)
				}
				framedAnswer := w.Header().Get(InferHeaderLength) != ""
				resp := readInferResponse(t, w)
				if want := fr.body.headerLen >= 0 && len(resp.Outputs) > 0; framedAnswer != want {
					t.Errorf("%s: response framed = %v, want %v", fr.name, framedAnswer, want)
				}
				seen := rec.take()
				if first == nil {
					first, firstSeen = resp, seen
					wantOutputs := len(tc.req.Images) + len(tc.req.Inputs)
					if len(resp.Outputs) != wantOutputs || len(seen) != len(tc.req.Images) {
						t.Fatalf("%s: %d logit rows, %d images preprocessed; want %d, %d",
							fr.name, len(resp.Outputs), len(seen), wantOutputs, len(tc.req.Images))
					}
					continue
				}
				if resp.ID != first.ID || resp.Model != first.Model || resp.Items != first.Items || resp.Tenant != first.Tenant ||
					!reflect.DeepEqual(resp.Classification, first.Classification) {
					t.Errorf("%s: response %+v, want %+v", fr.name, resp, first)
				}
				if !sameBits(resp.Outputs, first.Outputs) {
					t.Errorf("%s: logits are not bit-equal to the plain JSON answer", fr.name)
				}
				if !reflect.DeepEqual(seen, firstSeen) {
					t.Errorf("%s: preprocessor was handed different bytes", fr.name)
				}
			}
		})
	}
}

// probeBody is a request body whose payload bytes, after the JSON, are
// counted as the handler consumes them.
type probeBody struct{ io.Reader }

func (probeBody) Close() error { return nil }

type countingReader struct {
	r io.Reader
	n *int
}

func (c countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	*c.n += n
	return n, err
}

// TestWireRefusesBadFrames is the adversarial table: every way a body
// can lie about its lengths is a 4xx, and each one that can be seen in
// the JSON header is refused before a byte of payload is read.
func TestWireRefusesBadFrames(t *testing.T) {
	cfg, _ := preprocConfig(t)
	cfg.MaxImageBytes = 1 << 16 // MaxBatch is 8
	s := newTestServer(t, cfg)
	lim := inferLimits(cfg)
	router := NewDynamicRouter(RouterConfig{MaxBodyBytes: lim.body})
	defer router.Close()

	const auto = math.MinInt64                     // declare what is sent
	huge := strconv.FormatInt(math.MaxInt64-3, 10) // a multiple of 4
	cases := []struct {
		name      string
		headerLen string // the header's value; "=" means len(hdr), "" none
		hdr       string
		payload   int   // bytes sent after hdr
		declared  int64 // Content-Length; auto, or -1 for a chunked body
		want      int
		// sawPayload: the refusal needs payload bytes (a short or long
		// body); all others must not touch the payload.
		sawPayload bool
		// replicaOnly: the limit is the model's, which a router does not
		// know.
		replicaOnly bool
	}{
		{name: "content-length over the limit", hdr: `{"items":1}`, declared: lim.body + 1, want: 413},
		{name: "framed content-length over the limit", headerLen: "=", hdr: `{"image_sizes":[10]}`, payload: 10, declared: 1 << 40, want: 413},
		{name: "image over MaxImageBytes", headerLen: "=", hdr: `{"image_sizes":[65537]}`, payload: 65537, declared: auto, want: 413, replicaOnly: true},
		{name: "more parts than MaxBatch", headerLen: "=", hdr: `{"image_sizes":[1,1,1,1,1,1,1,1,1]}`, payload: 9, declared: auto, want: 400, replicaOnly: true},
		{name: "tensor bytes not a multiple of 4", headerLen: "=", hdr: `{"input_sizes":[6]}`, payload: 6, declared: auto, want: 400},
		{name: "sizes short of the body", headerLen: "=", hdr: `{"image_sizes":[3]}`, payload: 5, declared: auto, want: 400},
		{name: "sizes beyond the body", headerLen: "=", hdr: `{"image_sizes":[9]}`, payload: 5, declared: auto, want: 400},
		{name: "no sizes, yet bytes after the header", headerLen: "=", hdr: `{"items":1}`, payload: 5, declared: auto, want: 400},
		{name: "images_b64 beside binary images", headerLen: "=", hdr: `{"images_b64":["AAAA"],"image_sizes":[3]}`, payload: 3, declared: auto, want: 400},
		{name: "inputs beside binary tensors", headerLen: "=", hdr: `{"inputs":[[1]],"input_sizes":[4]}`, payload: 4, declared: auto, want: 400},
		{name: "both size lists", headerLen: "=", hdr: `{"image_sizes":[4],"input_sizes":[4]}`, payload: 8, declared: auto, want: 400},
		{name: "duplicate size list, the last one counts", headerLen: "=", hdr: `{"image_sizes":[3],"image_sizes":[4]}`, payload: 3, declared: auto, want: 400},
		{name: "negative size", headerLen: "=", hdr: `{"image_sizes":[-1]}`, declared: auto, want: 400},
		{name: "sizes overflow int64", headerLen: "=", hdr: `{"input_sizes":[` + huge + `,` + huge + `]}`, payload: 8, declared: auto, want: 400},
		{name: "sizes over the body limit", headerLen: "=", hdr: `{"input_sizes":[1099511627776]}`, payload: 8, declared: auto, want: 413},
		{name: "size no int64", headerLen: "=", hdr: `{"image_sizes":[1e30]}`, payload: 8, declared: auto, want: 400},
		{name: "header length over the body", headerLen: "4096", hdr: `{"items":1}`, declared: auto, want: 400},
		{name: "header length zero", headerLen: "0", hdr: `{"items":1}`, declared: auto, want: 400},
		{name: "header length negative", headerLen: "-1", hdr: `{"items":1}`, declared: auto, want: 400},
		{name: "header length no number", headerLen: "all", hdr: `{"items":1}`, declared: auto, want: 400},
		{name: "header cuts the JSON short", headerLen: "5", hdr: `{"items":1}`, declared: auto, want: 400},
		{name: "not JSON", headerLen: "=", hdr: `items=1`, declared: auto, want: 400},
		{name: "plain JSON declaring parts", hdr: `{"items":1,"image_sizes":[3]}`, declared: auto, want: 400},
		{name: "body cut short", headerLen: "=", hdr: `{"image_sizes":[300]}`, payload: 200, declared: 300 + 21, want: 400, sawPayload: true},
		{name: "framed, no content-length", headerLen: "=", hdr: `{"image_sizes":[3]}`, payload: 3, declared: -1, want: 400},
		{name: "chunked JSON over the limit", hdr: `{"id":"` + strings.Repeat("x", int(lim.body)) + `"}`, declared: -1, want: 413},
		{name: "chunked JSON declaring parts", hdr: `{"items":1,"image_sizes":[3]}`, declared: -1, want: 400},
	}
	for _, tc := range cases {
		for tier, h := range map[string]http.Handler{"replica": s.Handler(), "router": router.Handler()} {
			if tc.replicaOnly && tier == "router" {
				continue
			}
			t.Run(tc.name+"/"+tier, func(t *testing.T) {
				payloadRead := 0
				req := httptest.NewRequest(http.MethodPost, FormatInferPath("imagenet"), nil)
				req.Body = probeBody{io.MultiReader(strings.NewReader(tc.hdr),
					countingReader{bytes.NewReader(make([]byte, tc.payload)), &payloadRead})}
				req.ContentLength = tc.declared
				if tc.declared == auto {
					req.ContentLength = int64(len(tc.hdr) + tc.payload)
				}
				switch tc.headerLen {
				case "":
				case "=":
					req.Header.Set(InferHeaderLength, strconv.Itoa(len(tc.hdr)))
				default:
					req.Header.Set(InferHeaderLength, tc.headerLen)
				}
				w := httptest.NewRecorder()
				h.ServeHTTP(w, req)
				if w.Code != tc.want {
					t.Errorf("HTTP %d, want %d: %s", w.Code, tc.want, w.Body)
				}
				if (payloadRead > 0) != tc.sawPayload {
					t.Errorf("%d payload bytes were read", payloadRead)
				}
			})
		}
	}
}

// TestRouterFailoverReplaysPayload kills the connection of the first
// attempt in the middle of the request. The router must hand the
// second replica the caller's frame byte for byte, from the same
// buffer, and every counter must still add up.
func TestRouterFailoverReplaysPayload(t *testing.T) {
	frame := testFrame(t, 512, 512, 7) // large enough to be cut mid-body
	var resets atomic.Int64
	var recs []*recordingPreproc
	var servers []*Server
	var urls []string
	for i := 0; i < 2; i++ {
		cfg, pre := preprocConfig(t)
		rec := &recordingPreproc{Engine: pre}
		cfg.Preproc = rec
		s := newTestServer(t, cfg)
		h := s.Handler()
		hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodPost && resets.CompareAndSwap(0, 1) {
				// Whichever replica is tried first: take some of the body,
				// then drop the connection.
				_, _ = io.CopyN(io.Discard, r.Body, 4096)
				conn, _, err := w.(http.Hijacker).Hijack()
				if err != nil {
					t.Errorf("hijack: %v", err)
					return
				}
				conn.Close()
				return
			}
			h.ServeHTTP(w, r)
		}))
		t.Cleanup(hs.Close)
		recs, servers, urls = append(recs, rec), append(servers, s), append(urls, hs.URL)
	}
	router, err := NewRouter(urls, RouterConfig{Pool: fastPool()})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	rs := httptest.NewServer(router.Handler())
	defer rs.Close()

	resp, err := NewClient(rs.URL).Infer(context.Background(), "imagenet",
		InferRequestJSON{ID: "replayed", Images: [][]byte{frame}, ImageFormat: "ppm"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.ID != "replayed" || resp.Items != 1 || len(resp.Outputs) != 1 {
		t.Errorf("response %+v", resp)
	}
	var seen [][sha256.Size]byte
	for _, rec := range recs {
		seen = append(seen, rec.take()...)
	}
	if len(seen) != 1 || seen[0] != sha256.Sum256(frame) {
		t.Errorf("replicas preprocessed %d frames; the one served must hash as the caller's", len(seen))
	}
	rm := router.Metrics(context.Background()).Router
	if rm.Requests != 1 || rm.Failovers != 1 || rm.Errors != 0 {
		t.Errorf("router counted requests=%d failovers=%d errors=%d, want 1 1 0", rm.Requests, rm.Failovers, rm.Errors)
	}
	var served int64
	for _, s := range servers {
		m, err := s.MetricsFor("imagenet")
		if err != nil {
			t.Fatal(err)
		}
		served += m.Requests
	}
	if served != 1 {
		t.Errorf("replicas served %d requests, want 1", served)
	}
}

// TestWireBuffersAreIsolated runs concurrent callers with distinct
// frames through router and replica, long enough for every pooled
// buffer to be reused many times. Each frame carries its caller's
// number in its first pixel bytes; the preprocessor must see exactly
// the frames that were sent, unchanged while it works on them.
func TestWireBuffersAreIsolated(t *testing.T) {
	cfg, pre := preprocConfig(t)
	rec := &recordingPreproc{Engine: pre}
	cfg.Preproc = rec
	cfg.MaxImageBytes = 1 << 16
	s := newTestServer(t, cfg)
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	router, err := NewRouter([]string{hs.URL}, RouterConfig{Pool: fastPool()})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	rs := httptest.NewServer(router.Handler())
	defer rs.Close()

	const callers, rounds = 8, 12
	want := map[[sha256.Size]byte]int{}
	frames := make([][]byte, callers)
	for c := range frames {
		// Sizes straddle several buffer classes.
		frames[c] = testFrame(t, 24+20*c, 30+9*c, uint64(100+c))
		want[sha256.Sum256(frames[c])] = rounds
	}
	client := NewClient(rs.URL)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				id := fmt.Sprintf("c%d-%d", c, i)
				resp, err := client.Infer(context.Background(), "imagenet",
					InferRequestJSON{ID: id, Images: [][]byte{frames[c]}, ImageFormat: "ppm"})
				if err != nil {
					t.Errorf("%s: %v", id, err)
					return
				}
				if resp.ID != id || len(resp.Outputs) != 1 {
					t.Errorf("%s: response %+v", id, resp)
				}
			}
		}(c)
	}
	// One more caller is refused every time, from the header alone: the
	// replica answers while the router is still writing the frame, so
	// the router recycles a buffer its transport was reading a moment
	// ago.
	wg.Add(1)
	go func() {
		defer wg.Done()
		oversize := make([]byte, 1<<20)
		for i := 0; i < rounds; i++ {
			_, err := client.Infer(context.Background(), "imagenet", InferRequestJSON{Images: [][]byte{oversize}})
			var se *StatusError
			if !errors.As(err, &se) || se.Code != http.StatusRequestEntityTooLarge {
				t.Errorf("oversize frame %d: %v, want HTTP 413", i, err)
			}
		}
	}()
	wg.Wait()
	got := map[[sha256.Size]byte]int{}
	for _, h := range rec.take() {
		got[h]++
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("preprocessor saw %d distinct frames, want the %d sent, %d times each", len(got), callers, rounds)
	}
	if rec.moved != 0 {
		t.Errorf("%d frames changed while being preprocessed", rec.moved)
	}
}

// replayTransport fails the first pass over a request body half way,
// the way a keep-alive connection the server has closed does, and sends
// the request again from GetBody, as net/http's transport does then.
type replayTransport struct {
	base    http.RoundTripper
	replays atomic.Int64
}

func (rt *replayTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Method != http.MethodPost {
		return rt.base.RoundTrip(req)
	}
	if req.GetBody == nil || req.ContentLength <= 0 {
		return nil, fmt.Errorf("request is not replayable: GetBody set = %v, ContentLength %d", req.GetBody != nil, req.ContentLength)
	}
	_, _ = io.CopyN(io.Discard, req.Body, req.ContentLength/2)
	req.Body.Close()
	body, err := req.GetBody()
	if err != nil {
		return nil, err
	}
	again := req.Clone(req.Context())
	again.Body = body
	rt.replays.Add(1)
	return rt.base.RoundTrip(again)
}

// TestFramedRequestSurvivesStaleKeepAlive covers what bytes.Reader
// bodies got for free. A framed request declares its length and can be
// replayed from GetBody, and a server that closes its idle connections
// between requests costs a reconnect, not a failure.
func TestFramedRequestSurvivesStaleKeepAlive(t *testing.T) {
	cfg, pre := preprocConfig(t)
	rec := &recordingPreproc{Engine: pre}
	cfg.Preproc = rec
	s := newTestServer(t, cfg)
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	frame := testFrame(t, 200, 200, 11)
	req := InferRequestJSON{Images: [][]byte{frame}, ImageFormat: "ppm"}

	replay := &replayTransport{base: NewTransport()}
	c := NewClient(hs.URL)
	c.HTTP = &http.Client{Transport: replay}
	if _, err := c.Infer(context.Background(), "imagenet", req); err != nil {
		t.Fatalf("replayed request: %v", err)
	}
	if seen := rec.take(); replay.replays.Load() != 1 || len(seen) != 1 || seen[0] != sha256.Sum256(frame) {
		t.Errorf("%d replays, server saw %d frames; want one replay delivering the caller's frame", replay.replays.Load(), len(seen))
	}

	// The server closes the connection after every answer. Once the
	// client's transport has seen that (it closes its end), the next
	// framed request must go out on a new connection and succeed.
	closed := make(chan struct{}, 1)
	tr := NewTransport()
	tr.DialContext = func(ctx context.Context, network, addr string) (net.Conn, error) {
		conn, err := (&net.Dialer{}).DialContext(ctx, network, addr)
		return closeSignalConn{conn, closed}, err
	}
	c = NewClient(hs.URL)
	c.HTTP = &http.Client{Transport: tr}
	c.MaxRetries = -1
	for i := 0; i < 5; i++ {
		if _, err := c.Infer(context.Background(), "imagenet", req); err != nil {
			t.Fatalf("request %d, after the server closed its connections: %v", i, err)
		}
		hs.CloseClientConnections()
		<-closed
	}
}

// closeSignalConn tells the test when the transport closes it.
type closeSignalConn struct {
	net.Conn
	closed chan<- struct{}
}

func (c closeSignalConn) Close() error {
	err := c.Conn.Close()
	c.closed <- struct{}{}
	return err
}

// TestPayloadFreeRequestIsUnchangedOnTheWire is the golden for the
// requests that carry no payload (online_rpc): body bytes and header
// set are what the parent commit sent.
func TestPayloadFreeRequestIsUnchangedOnTheWire(t *testing.T) {
	var header http.Header
	var body []byte
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		header = r.Header.Clone()
		body, _ = io.ReadAll(r.Body)
		_ = json.NewEncoder(w).Encode(InferResponseJSON{Model: "ViT_Tiny", Items: 1})
	}))
	defer hs.Close()
	_, err := NewClient(hs.URL).Infer(context.Background(), "ViT_Tiny",
		InferRequestJSON{ID: "rpc-0-00c0ffee", Items: 1, Class: "online", Tenant: "farm-a"})
	if err != nil {
		t.Fatal(err)
	}
	const wantBody = `{"id":"rpc-0-00c0ffee","items":1,"class":"online","tenant":"farm-a"}`
	if string(body) != wantBody {
		t.Errorf("body %s, want %s", body, wantBody)
	}
	wantHeader := http.Header{
		"Accept-Encoding": {"gzip"},
		"Content-Length":  {strconv.Itoa(len(wantBody))},
		"Content-Type":    {"application/json"},
		"User-Agent":      {"Go-http-client/1.1"},
		"X-Request-Id":    {"rpc-0-00c0ffee"},
		"X-Tenant-Id":     {"farm-a"},
	}
	if !reflect.DeepEqual(header, wantHeader) {
		t.Errorf("headers %v, want %v", header, wantHeader)
	}
}

// drain empties p and returns the buffers it held.
func drain(p *bufPool) (held []*wireBuf) {
	for c := range p {
		for w, _ := p[c].Get().(*wireBuf); w != nil; w, _ = p[c].Get().(*wireBuf) {
			held = append(held, w)
		}
	}
	return held
}

// largestPooled empties p and returns the capacity of the largest
// buffer it held.
func largestPooled(p *bufPool) int {
	largest := 0
	for _, w := range drain(p) {
		largest = max(largest, cap(w.b))
	}
	return largest
}

// idle puts a buffer of class into p, as a released one lies there.
func idle(p *bufPool, class int) *wireBuf {
	w := &wireBuf{b: make([]byte, 0, 1<<(minBufShift+class)), class: class, pool: p}
	p[class].Put(w)
	return w
}

// TestDeclaredLengthIsNotAnAllocation is the memory invariant: a client
// that declares 64 MiB and sends 1 KiB commits a buffer for the 1 KiB.
func TestDeclaredLengthIsNotAnAllocation(t *testing.T) {
	hdr := `{"image_sizes":[67108864]}`
	sent := hdr + strings.Repeat("x", 1024-len(hdr))
	var pool bufPool
	var h requestHeader
	buf, err := decodeInfer(strings.NewReader(sent), http.Header{InferHeaderLength: {strconv.Itoa(len(hdr))}},
		int64(len(hdr))+64<<20, wireLimits{body: 1 << 31, image: 1 << 30}, &pool, &h)
	buf.release()
	if err == nil {
		t.Fatal("a 1 KiB body passed for 64 MiB")
	}
	if got, limit := largestPooled(&pool), 2*len(sent)+1<<minBufShift; got > limit {
		t.Errorf("%d bytes committed to a body of which %d arrived, limit %d", got, len(sent), limit)
	}
}

// TestDeclaredLengthIsNotAnAllocationWarm is the invariant's warm-pool
// twin: the same 64 MiB claim with 1 KiB sent, where the claim's class
// has a buffer lying idle. The decoder borrows it, so nothing beyond the
// 4 KiB class comes into being, and the refusal hands it back.
func TestDeclaredLengthIsNotAnAllocationWarm(t *testing.T) {
	if raceEnabled {
		t.Skip("under -race sync.Pool drops a quarter of what it is given")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // a collection empties a pool
	hdr := fmt.Sprintf(`{"image_sizes":[%d]}`, 64<<20-26)
	if len(hdr) != 26 {
		t.Fatalf("header %q is not 26 bytes", hdr)
	}
	sent := hdr + strings.Repeat("x", 1024-len(hdr))
	var pool bufPool
	borrowed := idle(&pool, classOf(64<<20))
	least := warmAllocs(func() {
		var h requestHeader
		buf, err := decodeInfer(strings.NewReader(sent), http.Header{InferHeaderLength: {strconv.Itoa(len(hdr))}},
			64<<20, wireLimits{body: 1 << 31, image: 1 << 30}, &pool, &h)
		if err == nil {
			t.Fatal("a 1 KiB body passed for 64 MiB")
		}
		if buf != borrowed {
			t.Fatalf("the body was read into a %d-byte buffer, not the idle one of its class", cap(buf.b))
		}
		buf.release() // the next call finds it idle again
	})
	if limit := uint64(2*len(sent) + 1<<minBufShift); least > limit {
		t.Errorf("%d bytes allocated for a body of which %d arrived, limit %d", least, len(sent), limit)
	}
	back := false
	for _, w := range drain(&pool) {
		if w == borrowed {
			back = true
		} else if cap(w.b) > 1<<minBufShift {
			t.Errorf("a %d-byte buffer came into being", cap(w.b))
		}
	}
	if !back {
		t.Error("the borrowed buffer did not go back to the pool")
	}
}

// frameBody is one 786 KB PPM frame, framed as Client.Infer sends it.
func frameBody(t testing.TB) wireBody {
	return binaryBody(t, InferRequestJSON{ID: "frame", Items: 1, Images: [][]byte{testFrame(t, 512, 512, 1)}, ImageFormat: "ppm"})
}

// decodeBody decodes b as an infer handler does, into a buffer from pool.
func decodeBody(b wireBody, pool *bufPool) (*wireBuf, requestHeader, error) {
	var h requestHeader
	buf, err := decodeInfer(bytes.NewReader(b.bytes), http.Header{InferHeaderLength: {strconv.Itoa(b.headerLen)}},
		int64(len(b.bytes)), wireLimits{}, pool, &h)
	return buf, h, err
}

// TestDecodeBorrowsTheIdleBuffer: with a buffer of the body's class
// lying idle, a 786 KB frame is read straight into it, past no buffer
// but the header's 4 KiB, and decodes to the same request as on an
// empty pool.
func TestDecodeBorrowsTheIdleBuffer(t *testing.T) {
	if raceEnabled {
		t.Skip("under -race sync.Pool drops a quarter of what it is given")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // a collection empties a pool
	body := frameBody(t)
	var cold, warm bufPool
	coldBuf, want, err := decodeBody(body, &cold)
	if err != nil {
		t.Fatal(err)
	}
	defer coldBuf.release()
	seeded := idle(&warm, classOf(int64(len(body.bytes))))
	buf, got, err := decodeBody(body, &warm)
	if err != nil {
		t.Fatal(err)
	}
	defer buf.release()
	if buf != seeded {
		t.Fatalf("decoded into a %d-byte buffer, not the idle %d-byte one of the body's class", cap(buf.b), cap(seeded.b))
	}
	if !sameRequest(want.InferRequestJSON, got.InferRequestJSON) {
		t.Error("the warm decode differs from the cold one")
	}
	if &got.Images[0][0] != &seeded.b[body.headerLen] {
		t.Error("the image is not a slice of the borrowed buffer")
	}
	for _, w := range drain(&warm) {
		if cap(w.b) > 1<<minBufShift {
			t.Errorf("the body passed through a %d-byte buffer on its way in", cap(w.b))
		}
	}
}

// TestWarmDecodeAllocatesNoBuffer: a warm decode of a 786 KB frame
// allocates only the decoded header, never a body buffer.
func TestWarmDecodeAllocatesNoBuffer(t *testing.T) {
	if raceEnabled {
		t.Skip("under -race sync.Pool drops a quarter of what it is given")
	}
	body := frameBody(t)
	var pool bufPool
	least := warmAllocs(func() {
		buf, _, err := decodeBody(body, &pool)
		buf.release()
		if err != nil {
			t.Fatal(err)
		}
	})
	if least > 8<<10 {
		t.Errorf("a warm decode allocated %d bytes for a 786 KB frame, want under 8 KB", least)
	}
	t.Logf("%d bytes allocated per warm decode of a 786 KB frame", least)
}

// cannedReplica is a replica that reads each infer body and answers
// with a canned response, so only the hops before it cost anything.
func cannedReplica(t testing.TB) *httptest.Server {
	t.Helper()
	canned, err := json.Marshal(InferResponseJSON{Model: "ViT_Base", Items: 1})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.Method == http.MethodPost:
			_, _ = io.Copy(io.Discard, r.Body)
			_, _ = w.Write(canned)
		case r.URL.Path == "/v2/metrics":
			_, _ = w.Write([]byte(`{"models":[]}`))
		}
	}))
	t.Cleanup(hs.Close)
	return hs
}

// warmAllocs is what one warm call of post allocates, in bytes: the
// least of several batches, as a collection between two calls empties
// a pool class now and then, which is not what a warm call costs.
func warmAllocs(post func()) uint64 {
	for i := 0; i < 5; i++ {
		post() // fill the pools, open the connections
	}
	const batches, runs = 8, 10
	least := uint64(math.MaxUint64)
	for b := 0; b < batches; b++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			post()
		}
		runtime.ReadMemStats(&after)
		least = min(least, (after.TotalAlloc-before.TotalAlloc)/runs)
	}
	return least
}

// TestRouterForwardsFramesWithoutCopies is the allocation guard: a warm
// router moves a 786 KB framed request from one socket to the next
// without a buffer, a base64 string, a re-marshalled payload or a copy
// buffer of its own coming into being.
func TestRouterForwardsFramesWithoutCopies(t *testing.T) {
	if raceEnabled {
		t.Skip("under -race sync.Pool drops a quarter of what it is given")
	}
	router, err := NewRouter([]string{cannedReplica(t).URL}, RouterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	h := router.Handler()
	body := binaryBody(t, InferRequestJSON{ID: "frame", Items: 1, Images: [][]byte{testFrame(t, 512, 512, 1)}, ImageFormat: "ppm"})
	least := warmAllocs(func() {
		if w := postWire(h, "ViT_Base", body); w.Code != http.StatusOK {
			t.Fatalf("HTTP %d: %s", w.Code, w.Body)
		}
	})
	if least > 24<<10 {
		t.Errorf("a warm router allocated %d KB for a 786 KB frame, want under 24 KB", least>>10)
	}
	t.Logf("%d KB allocated per warm 786 KB frame (router, canned replica and test harness together)", least>>10)
}

// TestClientSendsFramesWithoutCopies is the guard's client-side twin: a
// warm Client.Infer writes a 786 KB frame from the caller's slice, with
// no copy buffer per request.
func TestClientSendsFramesWithoutCopies(t *testing.T) {
	if raceEnabled {
		t.Skip("under -race sync.Pool drops a quarter of what it is given")
	}
	c := NewClient(cannedReplica(t).URL)
	req := InferRequestJSON{ID: "frame", Items: 1, Images: [][]byte{testFrame(t, 512, 512, 1)}, ImageFormat: "ppm"}
	least := warmAllocs(func() {
		if _, err := c.Infer(context.Background(), "ViT_Base", req); err != nil {
			t.Fatal(err)
		}
	})
	if least > 16<<10 {
		t.Errorf("a warm client allocated %d KB for a 786 KB frame, want under 16 KB", least>>10)
	}
	t.Logf("%d KB allocated per warm 786 KB frame (client and canned replica together)", least>>10)
}

// TestRevokeEndsTheFramedWrite: a replica that answers 413 without
// reading a 16 MiB frame leaves the client's vectored write blocked on
// a full socket. The answer must still come back at once: revoke waits
// for that write, and the transport ends it by closing the connection.
// Once revoked, no pass may read or write a byte.
func TestRevokeEndsTheFramedWrite(t *testing.T) {
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusRequestEntityTooLarge, errorJSON{Error: "too large"})
	}))
	defer hs.Close()
	c := NewClient(hs.URL)
	start := time.Now()
	_, err := c.Infer(context.Background(), "ViT_Base", InferRequestJSON{Images: [][]byte{make([]byte, 16<<20)}, ImageFormat: "ppm"})
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("got %v, want HTTP 413", err)
	}
	took := time.Since(start)
	t.Logf("413 after %v", took)
	if took > 2*time.Second {
		t.Errorf("the 413 took %v, want under 2 s", took)
	}

	f, err := encodeInfer(&InferRequestJSON{Images: [][]byte{[]byte("P6")}})
	if err != nil {
		t.Fatal(err)
	}
	r := f.reader().(*frameReader)
	f.revoke()
	if _, err := r.Read(make([]byte, 8)); !errors.Is(err, errRevoked) {
		t.Errorf("Read after revoke: %v, want errRevoked", err)
	}
	if _, err := r.WriteTo(io.Discard); !errors.Is(err, errRevoked) {
		t.Errorf("WriteTo after revoke: %v, want errRevoked", err)
	}
}

// gateWriter blocks every Write until open is closed.
type gateWriter struct {
	writing chan<- struct{}
	open    <-chan struct{}
}

func (g gateWriter) Write(p []byte) (int, error) {
	g.writing <- struct{}{}
	<-g.open
	return len(p), nil
}

// TestRevokeWaitsForTheWrite: revoke returns only once a write of the
// frame's parts that is in flight has returned, so a pooled buffer is
// never released under a write.
func TestRevokeWaitsForTheWrite(t *testing.T) {
	f, err := encodeInfer(&InferRequestJSON{Images: [][]byte{[]byte("P6")}})
	if err != nil {
		t.Fatal(err)
	}
	// writing holds one send per buffer written: the header and the part.
	writing, open, revoked, wrote := make(chan struct{}, 2), make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(wrote)
		if _, err := f.reader().(*frameReader).WriteTo(gateWriter{writing, open}); err != nil {
			t.Errorf("WriteTo: %v", err)
		}
	}()
	<-writing
	go func() {
		f.revoke()
		close(revoked)
	}()
	select {
	case <-revoked:
		t.Fatal("revoke returned while a write was in flight")
	case <-time.After(50 * time.Millisecond):
	}
	close(open)
	<-wrote
	<-revoked
}

// BenchmarkFramedHop sends one 786 KB PPM frame client → router →
// canned replica over loopback sockets: the two hops a framed request
// is written on, without the replica's decode and compute.
func BenchmarkFramedHop(b *testing.B) {
	router, err := NewRouter([]string{cannedReplica(b).URL}, RouterConfig{})
	if err != nil {
		b.Fatal(err)
	}
	defer router.Close()
	rs := httptest.NewServer(router.Handler())
	defer rs.Close()
	c := NewClient(rs.URL)
	frame := testFrame(b, 512, 512, 1)
	req := InferRequestJSON{ID: "hop", Items: 1, Images: [][]byte{frame}, ImageFormat: "ppm"}
	b.SetBytes(int64(len(frame)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Infer(context.Background(), "ViT_Base", req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecodeInfer is the replica side of a hop, which
// BenchmarkFramedHop's canned replica skips: a warm decode of one
// 786 KB PPM frame body.
func BenchmarkDecodeInfer(b *testing.B) {
	body := frameBody(b)
	var pool bufPool
	b.SetBytes(int64(len(body.bytes)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, _, err := decodeBody(body, &pool)
		buf.release()
		if err != nil {
			b.Fatal(err)
		}
	}
}

// sameRequest compares two decoded requests, tensors bit by bit (a
// binary part may hold a NaN) and empty payloads as equal to absent
// ones.
func sameRequest(a, b InferRequestJSON) bool {
	if len(a.Images) != len(b.Images) || !sameBits(a.Inputs, b.Inputs) {
		return false
	}
	for i := range a.Images {
		if !bytes.Equal(a.Images[i], b.Images[i]) {
			return false
		}
	}
	a.Images, b.Images, a.Inputs, b.Inputs = nil, nil, nil, nil
	return reflect.DeepEqual(a, b)
}

// FuzzDecodeInfer feeds the one body decoder arbitrary (header length,
// body) pairs, with the body's length declared or not, twice: from an
// empty pool, and from one with a buffer lying idle in every class a
// body may claim. It must never panic, and never commit more new memory
// than twice what it was given plus the smallest buffer class (borrowing
// an idle buffer commits none). Both decodes must agree on the request
// and the refusal, and whatever they accept must survive being encoded
// again and decoded again. The seed corpus in
// testdata/fuzz/FuzzDecodeInfer has a valid body of every framing and
// every shape TestWireRefusesBadFrames refuses, and one that borrows.
func FuzzDecodeInfer(f *testing.F) {
	lim := wireLimits{body: 1 << 20, parts: 8, image: 1 << 16}
	header := func(n int64) http.Header {
		if n < 0 {
			return nil
		}
		return http.Header{InferHeaderLength: {strconv.FormatInt(n, 10)}}
	}
	// One buffer per class up to lim.body's, made once and lent to each
	// input's warm pool.
	lent := make([]*wireBuf, classOf(lim.body)+1)
	for c := range lent {
		lent[c] = &wireBuf{b: make([]byte, 0, 1<<(minBufShift+c)), class: c}
	}
	f.Fuzz(func(t *testing.T, headerLen int64, declared bool, body []byte) {
		contentLen := int64(-1)
		if declared {
			contentLen = int64(len(body))
		}
		decode := func(pool *bufPool) (InferRequestJSON, error) {
			var h requestHeader
			received := 0
			buf, err := decodeInfer(countingReader{bytes.NewReader(body), &received}, header(headerLen), contentLen, lim, pool, &h)
			got := h.InferRequestJSON
			for i, im := range got.Images {
				got.Images[i] = bytes.Clone(im) // out of the buffer, which is released next
			}
			committed := 0
			for _, w := range append(drain(pool), buf) {
				if !slices.Contains(lent, w) {
					committed = max(committed, cap(w.b))
				}
			}
			buf.release()
			if limit := 2*received + 1<<minBufShift; committed > limit {
				t.Fatalf("%d bytes committed, %d received, limit %d", committed, received, limit)
			}
			return got, err
		}
		var pool, warm bufPool
		got, err := decode(&pool)
		for _, w := range lent {
			w.b, w.pool = w.b[:0], &warm
			warm[w.class].Put(w)
		}
		gotWarm, errWarm := decode(&warm)
		if fmt.Sprint(err) != fmt.Sprint(errWarm) || errStatus(err, 0) != errStatus(errWarm, 0) {
			t.Fatalf("refused with %v on an empty pool, %v on a warm one", err, errWarm)
		}
		if !sameRequest(got, gotWarm) {
			t.Fatalf("an empty and a warm pool decode differently: %d and %d images, %d and %d tensors, ids %q and %q",
				len(got.Images), len(gotWarm.Images), len(got.Inputs), len(gotWarm.Inputs), got.ID, gotWarm.ID)
		}
		if err != nil {
			return
		}
		again := binaryBody(t, got)
		var h2 requestHeader
		buf2, err := decodeInfer(bytes.NewReader(again.bytes), header(int64(again.headerLen)), int64(len(again.bytes)), wireLimits{}, &pool, &h2)
		defer buf2.release()
		if err != nil {
			t.Fatalf("an accepted request, encoded again, is refused: %v", err)
		}
		if !sameRequest(got, h2.InferRequestJSON) {
			t.Fatalf("decoded %+v, after another round %+v", got, h2.InferRequestJSON)
		}
	})
}
