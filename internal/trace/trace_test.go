package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestRecorderSortsSpans(t *testing.T) {
	r := NewRecorder()
	r.Add(Span{Name: "b", Track: "t", Start: 2, Duration: 1})
	r.Add(Span{Name: "a", Track: "t", Start: 0, Duration: 1})
	spans := r.Spans()
	if len(spans) != 2 || spans[0].Name != "a" || spans[1].Name != "b" {
		t.Errorf("spans not sorted: %+v", spans)
	}
	if r.Len() != 2 {
		t.Errorf("len %d", r.Len())
	}
}

func TestRecorderConcurrent(t *testing.T) {
	r := NewRecorder()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				r.Add(Span{Name: "x", Track: "t", Start: float64(i), Duration: 0.1})
			}
		}(i)
	}
	wg.Wait()
	if r.Len() != 800 {
		t.Errorf("lost spans: %d", r.Len())
	}
}

func TestWriteChromeFormat(t *testing.T) {
	r := NewRecorder()
	r.Add(Span{Name: "batch 0", Track: "engine", Start: 0.001, Duration: 0.002,
		Args: map[string]any{"batch": 64}})
	r.Add(Span{Name: "batch 0", Track: "preprocess", Start: 0, Duration: 0.001})
	var buf bytes.Buffer
	if err := r.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("not valid JSON: %v", err)
	}
	// 2 thread_name metadata + 2 spans.
	if len(events) != 4 {
		t.Fatalf("got %d events", len(events))
	}
	out := buf.String()
	for _, want := range []string{`"ph":"X"`, `"ph":"M"`, "thread_name", "engine", "preprocess"} {
		if !strings.Contains(out, want) {
			t.Errorf("chrome trace missing %q", want)
		}
	}
	// Microsecond conversion: 0.002s -> 2000us.
	found := false
	for _, e := range events {
		if e["dur"] == 2000.0 {
			found = true
		}
	}
	if !found {
		t.Error("duration not converted to microseconds")
	}
}

func TestValidateDetectsOverlap(t *testing.T) {
	good := NewRecorder()
	good.Add(Span{Name: "a", Track: "t", Start: 0, Duration: 1})
	good.Add(Span{Name: "b", Track: "t", Start: 1, Duration: 1})
	good.Add(Span{Name: "c", Track: "u", Start: 0.5, Duration: 1}) // other track may overlap
	if err := good.Validate(); err != nil {
		t.Errorf("valid timeline rejected: %v", err)
	}
	bad := NewRecorder()
	bad.Add(Span{Name: "a", Track: "t", Start: 0, Duration: 2})
	bad.Add(Span{Name: "b", Track: "t", Start: 1, Duration: 1})
	if err := bad.Validate(); err == nil {
		t.Error("overlapping timeline accepted")
	}
	neg := NewRecorder()
	neg.Add(Span{Name: "a", Track: "t", Start: 0, Duration: -1})
	if err := neg.Validate(); err == nil {
		t.Error("negative duration accepted")
	}
}

func TestRingRecorderBoundsMemory(t *testing.T) {
	r := NewRing(4)
	for i := 0; i < 10; i++ {
		r.Add(Span{Name: "s", Track: "t", Start: float64(i), Duration: 0.5})
	}
	if r.Len() != 4 {
		t.Errorf("len %d, want capacity 4", r.Len())
	}
	if r.Dropped() != 6 {
		t.Errorf("dropped %d, want 6", r.Dropped())
	}
	// Only the most recent spans survive.
	spans := r.Spans()
	if spans[0].Start != 6 || spans[len(spans)-1].Start != 9 {
		t.Errorf("retained window %v..%v, want 6..9", spans[0].Start, spans[len(spans)-1].Start)
	}
	if err := r.Validate(); err != nil {
		t.Errorf("ring timeline invalid: %v", err)
	}
}

func TestRingRecorderUnboundedFallback(t *testing.T) {
	r := NewRing(0)
	for i := 0; i < 100; i++ {
		r.Add(Span{Name: "s", Track: "t", Start: float64(i), Duration: 1})
	}
	if r.Len() != 100 || r.Dropped() != 0 {
		t.Errorf("len %d dropped %d, want unbounded behaviour", r.Len(), r.Dropped())
	}
}

func TestRingRecorderConcurrent(t *testing.T) {
	r := NewRing(64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.Add(Span{Name: "s", Track: "t", Start: float64(g*1000 + i), Duration: 0.1})
				if i%50 == 0 {
					_ = r.Spans()
					_ = r.Dropped()
				}
			}
		}(g)
	}
	wg.Wait()
	if r.Len() != 64 {
		t.Errorf("len %d, want 64", r.Len())
	}
	if got := r.Dropped(); got != 8*500-64 {
		t.Errorf("dropped %d, want %d", got, 8*500-64)
	}
}
