// Package trace records execution timelines and exports them in the
// Chrome trace-event JSON format (chrome://tracing, Perfetto), giving
// the characterization study visual evidence of preprocessing/inference
// overlap and pipeline bubbles.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
)

// Span is one complete-event ("ph":"X") on a named track.
type Span struct {
	Name string
	// Track is the display row (e.g. "preprocess", "engine").
	Track string
	// Start and Duration are in seconds (virtual or wall).
	Start    float64
	Duration float64
	// Args are free-form metadata shown on click.
	Args map[string]any
}

// Recorder accumulates spans; safe for concurrent use. An unbounded
// recorder (NewRecorder) keeps every span — right for finite offline
// experiments. A ring recorder (NewRing) keeps the most recent spans
// in a fixed-capacity buffer and counts the rest as dropped — right
// for long-lived servers, where the trace must not grow with uptime.
type Recorder struct {
	mu      sync.Mutex
	spans   []Span
	cap     int    // 0 = unbounded
	head    int    // next write position when the ring is full
	dropped uint64 // spans evicted from the ring
}

// NewRecorder returns an empty unbounded recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// NewRing returns a recorder that retains only the most recent
// capacity spans; older spans are evicted and counted by Dropped.
// capacity <= 0 falls back to unbounded.
func NewRing(capacity int) *Recorder {
	if capacity <= 0 {
		return NewRecorder()
	}
	return &Recorder{cap: capacity}
}

// Add records a span.
func (r *Recorder) Add(s Span) {
	r.mu.Lock()
	if r.cap > 0 && len(r.spans) == r.cap {
		r.spans[r.head] = s
		r.head = (r.head + 1) % r.cap
		r.dropped++
	} else {
		r.spans = append(r.spans, s)
	}
	r.mu.Unlock()
}

// Dropped returns the number of spans evicted from a ring recorder.
func (r *Recorder) Dropped() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// Spans returns a copy of the recorded spans sorted by start time.
func (r *Recorder) Spans() []Span {
	r.mu.Lock()
	cp := append([]Span(nil), r.spans...)
	r.mu.Unlock()
	sort.SliceStable(cp, func(i, j int) bool { return cp[i].Start < cp[j].Start })
	return cp
}

// Len returns the number of retained spans.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

// chromeEvent is the trace-event wire format.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeMeta struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// WriteChrome serializes the recording as a Chrome trace-event JSON
// array. Tracks become thread rows with stable ids.
func (r *Recorder) WriteChrome(w io.Writer) error {
	return r.WriteChromeFiltered(w, nil)
}

// WriteChromeFiltered is WriteChrome restricted to spans satisfying
// keep (nil keeps everything). Tracks with no surviving spans are
// omitted.
func (r *Recorder) WriteChromeFiltered(w io.Writer, keep func(Span) bool) error {
	spans := r.Spans()
	if keep != nil {
		kept := spans[:0]
		for _, s := range spans {
			if keep(s) {
				kept = append(kept, s)
			}
		}
		spans = kept
	}
	trackIDs := map[string]int{}
	var tracks []string
	for _, s := range spans {
		if _, ok := trackIDs[s.Track]; !ok {
			trackIDs[s.Track] = len(tracks)
			tracks = append(tracks, s.Track)
		}
	}
	var events []any
	for _, name := range tracks {
		events = append(events, chromeMeta{
			Name: "thread_name", Ph: "M", Pid: 1, Tid: trackIDs[name],
			Args: map[string]any{"name": name},
		})
	}
	for _, s := range spans {
		events = append(events, chromeEvent{
			Name: s.Name, Cat: s.Track, Ph: "X",
			Ts: s.Start * 1e6, Dur: s.Duration * 1e6,
			Pid: 1, Tid: trackIDs[s.Track], Args: s.Args,
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(events)
}

// Validate checks that no track has overlapping spans (each track is a
// serial resource). It returns nil when the timeline is consistent.
func (r *Recorder) Validate() error {
	byTrack := map[string][]Span{}
	for _, s := range r.Spans() {
		if s.Duration < 0 {
			return fmt.Errorf("trace: span %q has negative duration", s.Name)
		}
		byTrack[s.Track] = append(byTrack[s.Track], s)
	}
	for track, spans := range byTrack {
		for i := 1; i < len(spans); i++ {
			prevEnd := spans[i-1].Start + spans[i-1].Duration
			if spans[i].Start < prevEnd-1e-9 {
				return fmt.Errorf("trace: track %q spans %q and %q overlap",
					track, spans[i-1].Name, spans[i].Name)
			}
		}
	}
	return nil
}
