package main

import (
	"context"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"harvest/internal/engine"
	"harvest/internal/preprocess"
	"harvest/internal/serve"
	"harvest/internal/stream"
	"harvest/internal/tensor"
	"harvest/internal/trace"
)

// Span names, one per layer boundary the traced pass wraps. The spans
// are recorded here, around the calls into each layer, through hooks
// the program already accepts (an http.Handler, an http.RoundTripper, a
// preprocess.Engine, an engine.Forwarder, a stream.Backend); nothing
// inside the program changes.
const (
	spanClientInfer   = "client.infer"
	spanRouterHandle  = "router.handle"
	spanReplicaHandle = "replica.handle"
	spanPreprocess    = "preprocess.batch"
	spanEngineForward = "engine.forward"
	spanClientFrame   = "stream.client_frame"
	spanIngestHandle  = "stream.ingest_handle"
	spanBackendSubmit = "stream.backend_submit"
	spanCloudTrip     = "cloud.roundtrip"
)

var spanNames = []string{
	spanClientInfer, spanRouterHandle, spanReplicaHandle, spanPreprocess,
	spanEngineForward, spanClientFrame, spanIngestHandle, spanBackendSubmit,
	spanCloudTrip,
}

// spanParents lists, per span name, the names its parent may have, in
// order of preference. A span with an id attaches to the parent with
// the same id; a batch-level span (no id) attaches to the candidate on
// the same tier that contains it in time, which is unambiguous with one
// caller in flight (see resolveParents for the stream's edge).
var spanParents = map[string][]string{
	spanRouterHandle:  {spanClientInfer, spanCloudTrip},
	spanReplicaHandle: {spanRouterHandle, spanClientInfer},
	spanPreprocess:    {spanReplicaHandle, spanBackendSubmit},
	spanEngineForward: {spanReplicaHandle},
	spanBackendSubmit: {spanClientFrame},
	spanCloudTrip:     {spanClientFrame},
}

// span is one timed interval at a layer boundary.
type span struct {
	name string
	// id is the request's X-Request-ID (a frame's "camera-seq" id on the
	// stream path); empty for batch-level spans.
	id string
	// tier names the server the span ran on, so a batch-level span only
	// attaches to a parent on the same server.
	tier       string
	start, end time.Time
	parent     int // index into the log; -1 for a root
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs share the traced runs' code.
type tracer struct {
	mu    sync.Mutex
	since time.Time
	spans []span
}

func (t *tracer) add(name, id, tier string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if !end.Before(t.since) {
		t.spans = append(t.spans, span{name: name, id: id, tier: tier, start: start, end: end, parent: -1})
	}
	t.mu.Unlock()
}

// reset starts the measured window: spans that ended during set-up and
// warm-up are dropped. A span still open (a frame in flight, a camera's
// session) is kept whole.
func (t *tracer) reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.since = time.Now()
	t.spans = t.spans[:0]
	t.mu.Unlock()
}

// resolveParents links every span to the span that caused it.
func resolveParents(spans []span) {
	byNameID := map[[2]string]int{}
	byName := map[string][]int{}
	for i, s := range spans {
		if s.id != "" {
			byNameID[[2]string{s.name, s.id}] = i
		}
		byName[s.name] = append(byName[s.name], i)
	}
	for i := range spans {
		s := &spans[i]
		for _, pn := range spanParents[s.name] {
			if s.id != "" {
				if p, ok := byNameID[[2]string{pn, s.id}]; ok {
					s.parent = p
					break
				}
				continue
			}
			// Of several containers (frames in flight at once on the
			// stream path) the one that started last is the caller:
			// the wrapped call is made right after its parent starts.
			for _, p := range byName[pn] {
				ps := spans[p]
				if ps.tier != s.tier || s.start.Before(ps.start) || s.end.After(ps.end) {
					continue
				}
				if s.parent < 0 || ps.start.After(spans[s.parent].start) {
					s.parent = p
				}
			}
			if s.parent >= 0 {
				break
			}
		}
	}
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its children cover. Children that overlap one
// another, or that stick out of the parent, are counted once and only
// where they overlap the parent.
func selfTimes(spans []span) []time.Duration {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].start.Before(spans[kids[b]].start) })
		covered := time.Duration(0)
		cursor := s.start
		for _, k := range kids {
			from, to := spans[k].start, spans[k].end
			if from.Before(cursor) {
				from = cursor
			}
			if to.After(s.end) {
				to = s.end
			}
			if to.After(from) {
				covered += to.Sub(from)
				cursor = to
			}
		}
		out[i] = s.end.Sub(s.start) - covered
	}
	return out
}

// spanSummary is the per-name outcome of a traced pass.
type spanSummary struct {
	Count      int     `json:"count"`
	SelfMsP50  float64 `json:"self_ms_p50"`
	TotalMsP50 float64 `json:"total_ms_p50"`
}

func summarizeSpans(spans []span) map[string]spanSummary {
	resolveParents(spans)
	self := selfTimes(spans)
	selfBy, totalBy := map[string][]float64{}, map[string][]float64{}
	for i, s := range spans {
		selfBy[s.name] = append(selfBy[s.name], ms(self[i]))
		totalBy[s.name] = append(totalBy[s.name], ms(s.end.Sub(s.start)))
	}
	out := map[string]spanSummary{}
	for name, xs := range selfBy {
		out[name] = spanSummary{Count: len(xs), SelfMsP50: median(xs), TotalMsP50: median(totalBy[name])}
	}
	return out
}

// writeChrome writes the spans as Chrome trace-event JSON through the
// repo's own exporter, one track per span name and tier.
func writeChrome(w io.Writer, spans []span) error {
	rec := trace.NewRing(len(spans) + 1)
	for _, s := range spans {
		args := map[string]any{}
		if s.id != "" {
			args["id"] = s.id
		}
		if s.parent >= 0 {
			args["parent"] = spans[s.parent].name
		}
		track := s.name
		if s.tier != "" {
			track += "@" + s.tier
		}
		rec.Add(trace.Span{
			Name:     s.name,
			Track:    track,
			Start:    float64(s.start.UnixNano()) / 1e9,
			Duration: s.end.Sub(s.start).Seconds(),
			Args:     args,
		})
	}
	return rec.WriteChrome(w)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// The wrappers below are identity functions when t is nil, so the
// untraced tier is assembled by the same code as the traced one.

// spanHandler records one span per request served by h.
func (t *tracer) handler(name, tier string, h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		id := r.Header.Get(serve.RequestIDHeader)
		h.ServeHTTP(w, r)
		if r.Method == http.MethodPost {
			// Probes and metric polls are not request spans.
			t.add(name, id, tier, start, time.Now())
		}
	})
}

// spanTransport records one span per round trip, response body
// included: the span ends when the caller has drained the body.
type spanTransport struct {
	t    *tracer
	name string
	base http.RoundTripper
}

func (st spanTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	start := time.Now()
	id := r.Header.Get(serve.RequestIDHeader)
	resp, err := st.base.RoundTrip(r)
	if err != nil {
		st.t.add(st.name, id, "", start, time.Now())
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, done: func() { st.t.add(st.name, id, "", start, time.Now()) }}
	return resp, nil
}

type spanBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}

// spanPreproc wraps the preprocessing engine of one replica.
type spanPreproc struct {
	preprocess.Engine
	t    *tracer
	tier string
}

func (p spanPreproc) ProcessBatch(items []preprocess.Item) (preprocess.Result, error) {
	start := time.Now()
	res, err := p.Engine.ProcessBatch(items)
	p.t.add(spanPreprocess, "", p.tier, start, time.Now())
	return res, err
}

// spanForwarder wraps the real compute backend of one replica.
type spanForwarder struct {
	engine.Forwarder
	t    *tracer
	tier string
}

func (f spanForwarder) Forward(x *tensor.Tensor) (*tensor.Tensor, error) {
	start := time.Now()
	y, err := f.Forwarder.Forward(x)
	f.t.add(spanEngineForward, "", f.tier, start, time.Now())
	return y, err
}

// spanBackend wraps the edge serving tier behind the stream ingest.
type spanBackend struct {
	stream.Backend
	t    *tracer
	tier string
}

func (b spanBackend) Submit(ctx context.Context, req *serve.Request) (*serve.Response, error) {
	start := time.Now()
	resp, err := b.Backend.Submit(ctx, req)
	b.t.add(spanBackendSubmit, req.ID, b.tier, start, time.Now())
	return resp, err
}
