package stream

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"harvest/internal/metrics"
	"harvest/internal/serve"
)

// Handler serves the streaming ingest API:
//
//	POST /v2/streams/{camera}?model=NAME&budget_ms=16.7
//
// The request body (Content-Type FramesContentType, else 415) is a
// long-lived run of frames, each a JSON header line and then the raw
// image bytes it declares (readFrame). The chunked response carries one
// NDJSON Outcome line per frame (completion order, not arrival order —
// a dropped frame's outcome beats a served one that is still computing)
// and a final Summary line when the camera closes its side. A frame that
// cannot be read ends the session with one failed "read:" outcome: the
// byte stream cannot be resynchronised. The response headers flush
// immediately so the client can stream against a live connection.
func (ing *Ingest) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v2/streams/{camera}", ing.handleStream)
	return mux
}

func (ing *Ingest) handleStream(w http.ResponseWriter, r *http.Request) {
	camera := r.PathValue("camera")
	if camera == "" {
		http.Error(w, "stream: camera id required", http.StatusBadRequest)
		return
	}
	if ct := r.Header.Get("Content-Type"); ct != FramesContentType {
		http.Error(w, "stream: frames must be sent as "+FramesContentType+", not "+strconv.Quote(ct),
			http.StatusUnsupportedMediaType)
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "stream: response writer cannot stream", http.StatusInternalServerError)
		return
	}
	// The session interleaves reads (frames) with writes (outcomes) on
	// one HTTP/1 exchange. Without full duplex the server would drain
	// the request body — endless, for a live camera — before letting
	// the first outcome out.
	if err := http.NewResponseController(w).EnableFullDuplex(); err != nil {
		http.Error(w, "stream: full-duplex unsupported: "+err.Error(), http.StatusInternalServerError)
		return
	}
	var budget time.Duration
	if s := r.URL.Query().Get("budget_ms"); s != "" {
		// ParseFloat takes the whole string: "5ms" or "1,5" is an
		// error, not 5 or 1. Inf would be an unbounded budget.
		ms, err := strconv.ParseFloat(s, 64)
		if err != nil || !(ms > 0) || math.IsInf(ms, 1) {
			http.Error(w, "stream: invalid budget_ms", http.StatusBadRequest)
			return
		}
		budget = serve.MsDuration(ms)
	}
	tenant := r.URL.Query().Get("tenant")
	if tenant == "" {
		tenant = r.Header.Get(serve.TenantHeader)
	}
	sess, err := ing.Open(camera, r.URL.Query().Get("model"), tenant, budget)
	if err != nil {
		code := http.StatusBadRequest
		if errors.Is(err, ErrSessionActive) {
			code = http.StatusConflict
		}
		http.Error(w, err.Error(), code)
		return
	}
	defer sess.Close()
	w.Header().Set(serve.TenantHeader, sess.Tenant)

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Accel-Buffering", "no")
	// A session refused mid-body leaves the rest of it unread, so the
	// connection cannot carry another request (under full duplex,
	// net/http would start a read on it that nothing stops).
	w.Header().Set("Connection", "close")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	// Outcomes complete on arbitrary goroutines; serialize the writes.
	var emitMu sync.Mutex
	enc := json.NewEncoder(w)
	emit := func(o Outcome) {
		emitMu.Lock()
		defer emitMu.Unlock()
		if enc.Encode(o) == nil {
			flusher.Flush()
		}
	}

	br := bufio.NewReaderSize(r.Body, maxFrameHeaderBytes)
	f, err := readFrame(br)
	for ; err == nil; f, err = readFrame(br) {
		sess.HandleFrame(r.Context(), f, emit)
	}
	// The client's side of the stream is over (EOF, or a mid-stream
	// disconnect surfaced as a body read error): release the camera ID
	// *before* draining in-flight completions, so a reconnecting camera
	// is not refused with 409 while a queued frame finishes elsewhere.
	sess.detach()
	// Drain in-flight completions, then close the stream with the
	// session's accounting.
	sess.wg.Wait()
	if err != io.EOF {
		emit(Outcome{Outcome: OutcomeFailed, Error: "read: " + err.Error()})
	}
	emitMu.Lock()
	defer emitMu.Unlock()
	enc.Encode(struct {
		Summary Summary `json:"summary"`
	}{sess.Summary()})
	flusher.Flush()
}

// frameHeader is the JSON line in front of each frame's image bytes.
type frameHeader struct {
	Seq        int64  `json:"seq"`
	Format     string `json:"format,omitempty"`
	ImageBytes int64  `json:"image_bytes"`
}

// readFrame reads one frame off a session body: a header line of at
// most maxFrameHeaderBytes, then exactly image_bytes raw bytes, which go
// to a fresh buffer, never a pooled one: the frame outlives this call
// (the served request, the cloud upload and the dHash alias it). A bad
// header is refused before any payload byte is read. io.EOF means the
// body ended cleanly between frames.
func readFrame(br *bufio.Reader) (Frame, error) {
	line, err := br.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		return Frame{}, fmt.Errorf("frame header longer than %d bytes", maxFrameHeaderBytes)
	} else if err == io.EOF && len(line) > 0 {
		err = io.ErrUnexpectedEOF
	}
	if err != nil {
		return Frame{}, err
	}
	var h frameHeader
	if err := json.Unmarshal(line, &h); err != nil {
		return Frame{}, fmt.Errorf("bad frame header: %w", err)
	}
	if h.ImageBytes < 0 || h.ImageBytes > DefaultMaxFrameBytes {
		return Frame{}, fmt.Errorf("frame image_bytes %d outside [0, %d]", h.ImageBytes, DefaultMaxFrameBytes)
	}
	f := Frame{Seq: h.Seq, Format: h.Format, Image: make([]byte, h.ImageBytes)}
	if n, err := io.ReadFull(br, f.Image); err != nil {
		return Frame{}, fmt.Errorf("frame %d payload cut off at %d of %d bytes: %w", h.Seq, n, h.ImageBytes, err)
	}
	return f, nil
}

// MetricsSnapshot is the ingest tier's aggregate accounting, exported
// under the "stream" extension of GET /v2/metrics.
type MetricsSnapshot struct {
	ActiveSessions int   `json:"active_sessions"`
	Frames         int64 `json:"frames"`
	ServedEdge     int64 `json:"served_edge"`
	ServedCloud    int64 `json:"served_cloud"`
	DedupHits      int64 `json:"dedup_hits"`
	Dropped        int64 `json:"dropped"`
	RejectedOrder  int64 `json:"rejected_order"`
	Failed         int64 `json:"failed"`
	// E2EMs summarizes frame receipt → outcome for served and cached
	// frames.
	E2EMs LatencySummaryJSON `json:"e2e_ms"`
	// UplinkMs summarizes the modeled upload cost of cloud-shipped
	// frames.
	UplinkMs LatencySummaryJSON `json:"uplink_ms"`
	// Tenants decomposes session/frame volume per tenant.
	Tenants map[string]TenantStreamStats `json:"tenants,omitempty"`
}

// LatencySummaryJSON is a milliseconds quantile summary.
type LatencySummaryJSON struct {
	N    int     `json:"n"`
	Mean float64 `json:"mean"`
	P50  float64 `json:"p50"`
	P95  float64 `json:"p95"`
	P99  float64 `json:"p99"`
}

func latencySummary(l *metrics.LatencyRecorder) LatencySummaryJSON {
	s := serve.LatencySummary(l.Snapshot())
	return LatencySummaryJSON{N: s.Count, Mean: s.MeanMs, P50: s.P50Ms, P95: s.P95Ms, P99: s.P99Ms}
}

func (ing *Ingest) snapshot() MetricsSnapshot {
	return MetricsSnapshot{
		ActiveSessions: ing.ActiveSessions(),
		Frames:         ing.met.frames.Load(),
		ServedEdge:     ing.met.servedEdge.Load(),
		ServedCloud:    ing.met.servedCloud.Load(),
		DedupHits:      ing.met.dedupHits.Load(),
		Dropped:        ing.met.dropped.Load(),
		RejectedOrder:  ing.met.rejectedOrder.Load(),
		Failed:         ing.met.failed.Load(),
		E2EMs:          latencySummary(&ing.met.e2e),
		UplinkMs:       latencySummary(&ing.met.uplink),
		Tenants:        ing.TenantStats(),
	}
}

// MetricsJSON snapshots the ingest metrics; its shape matches the
// serve metrics-extension hook.
func (ing *Ingest) MetricsJSON() any { return ing.snapshot() }

// WriteProm writes the same snapshot in Prometheus text exposition
// format; its shape matches the serve metrics-extension hook.
func (ing *Ingest) WriteProm(w io.Writer) {
	m := ing.snapshot()
	pw := metrics.PromWriter{W: w}
	for _, f := range []struct {
		name, typ, help string
		v               float64
	}{
		{"harvest_stream_active_sessions", "gauge", "Live camera ingest sessions.", float64(m.ActiveSessions)},
		{"harvest_stream_frames_total", "counter", "Frames received across all camera sessions.", float64(m.Frames)},
		{"harvest_stream_served_edge_total", "counter", "Frames served by the local edge tier.", float64(m.ServedEdge)},
		{"harvest_stream_served_cloud_total", "counter", "Frames offloaded to and served by the cloud tier.", float64(m.ServedCloud)},
		{"harvest_stream_dedup_hits_total", "counter", "Frames answered from the temporal dedup cache.", float64(m.DedupHits)},
		{"harvest_stream_frames_dropped_total", "counter", "Frames dropped at admission by the drop-stale gate.", float64(m.Dropped)},
		{"harvest_stream_rejected_order_total", "counter", "Frames rejected for out-of-order sequence numbers.", float64(m.RejectedOrder)},
		{"harvest_stream_failed_total", "counter", "Admitted frames that failed to serve.", float64(m.Failed)},
		{"harvest_stream_e2e_p99_ms", "gauge", "Frame receipt to outcome P99 (served and cached frames).", m.E2EMs.P99},
		{"harvest_stream_uplink_p99_ms", "gauge", "Modeled edge-to-cloud upload P99 for offloaded frames.", m.UplinkMs.P99},
	} {
		pw.Head(f.name, f.typ, f.help)
		pw.Val(f.name, "", f.v)
	}
	if len(m.Tenants) == 0 {
		return
	}
	names := make([]string, 0, len(m.Tenants))
	for t := range m.Tenants {
		names = append(names, t)
	}
	sort.Strings(names)
	for _, f := range []struct {
		name, help string
		get        func(TenantStreamStats) int64
	}{
		{"harvest_stream_tenant_frames_total", "Frames received per tenant.", func(t TenantStreamStats) int64 { return t.Frames }},
		{"harvest_stream_tenant_served_total", "Frames served per tenant (edge or cloud).", func(t TenantStreamStats) int64 { return t.Served }},
	} {
		pw.Head(f.name, "counter", f.help)
		for _, t := range names {
			pw.Int(f.name, metrics.PromLabel("tenant", t), f.get(m.Tenants[t]))
		}
	}
}
