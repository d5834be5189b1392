// Package metrics provides latency recording, throughput accounting and
// the ASCII table/series renderers the experiment harness uses to print
// the paper's tables and figures.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync/atomic"
)

// Counter is a monotonically increasing event counter, safe for
// concurrent use. The zero value is ready to use.
type Counter struct {
	v atomic.Int64
}

// Inc adds one to the counter.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n to the counter.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Load returns the current count.
func (c *Counter) Load() int64 { return c.v.Load() }

// LatencyRecorder accumulates latency observations (seconds) into a
// bounded log-bucketed histogram (see histogram.go for the shared
// layout). Memory is O(1) in the number of observations — a long-lived
// server can observe forever without growing — and every operation is
// lock-free (atomic bucket counters), so Observe is cheap on the hot
// path. The zero value is ready to use; it is safe for concurrent use.
//
// Mean, min and max are exact; percentiles are interpolated within the
// containing log bucket (relative error bounded by the bucket width
// ratio 10^(1/8) ≈ 1.33, and exact at the observed extremes).
type LatencyRecorder struct {
	counts    [NumLatencyBuckets]atomic.Uint64
	count     atomic.Uint64
	sumBits   atomic.Uint64
	sumSqBits atomic.Uint64
	minBits   atomic.Uint64 // float bits + 1; 0 = unset
	maxBits   atomic.Uint64 // float bits + 1; 0 = unset
}

// Observe records one latency in seconds. Negative and NaN values are
// clamped to zero.
func (l *LatencyRecorder) Observe(seconds float64) {
	if seconds < 0 || seconds != seconds {
		seconds = 0
	}
	l.counts[bucketIndex(seconds)].Add(1)
	l.count.Add(1)
	addFloat(&l.sumBits, seconds)
	addFloat(&l.sumSqBits, seconds*seconds)
	noteMin(&l.minBits, seconds)
	noteMax(&l.maxBits, seconds)
}

// Count returns the number of observations.
func (l *LatencyRecorder) Count() int { return int(l.count.Load()) }

// Snapshot copies the histogram state. Concurrent observers make the
// snapshot eventually consistent: bucket counts, sum and extremes are
// read individually, so a snapshot taken mid-Observe may be off by the
// in-flight observation — never by more.
func (l *LatencyRecorder) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{Counts: make([]uint64, NumLatencyBuckets)}
	var n uint64
	for i := range l.counts {
		c := l.counts[i].Load()
		s.Counts[i] = c
		n += c
	}
	s.Count = n
	s.Sum = math.Float64frombits(l.sumBits.Load())
	s.SumSq = math.Float64frombits(l.sumSqBits.Load())
	s.Min = loadExtreme(&l.minBits)
	s.Max = loadExtreme(&l.maxBits)
	return s
}

// Table renders aligned ASCII tables.
type Table struct {
	Title   string
	Headers []string
	rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row; cells are formatted with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		case string:
			row[i] = v
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

// NumRows returns the number of data rows.
func (t *Table) NumRows() int { return len(t.rows) }

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}

// csvCell quotes a cell per RFC 4180 when it contains a comma, quote,
// or line break; plain cells pass through unquoted.
func csvCell(s string) string {
	if !strings.ContainsAny(s, ",\"\n\r") {
		return s
	}
	return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
}

// CSV renders the table as RFC 4180 comma-separated values: cells
// containing commas, quotes or newlines are quoted, embedded quotes
// are doubled.
func (t *Table) CSV() string {
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(csvCell(c))
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}

// Point is one (x, y) sample of a figure series.
type Point struct{ X, Y float64 }

// Series is a named curve, the unit figures are assembled from.
type Series struct {
	Name   string
	Points []Point
}

// Add appends a point.
func (s *Series) Add(x, y float64) { s.Points = append(s.Points, Point{X: x, Y: y}) }

// YAt returns the y value at the given x, or NaN if absent.
func (s *Series) YAt(x float64) (float64, bool) {
	for _, p := range s.Points {
		if p.X == x {
			return p.Y, true
		}
	}
	return 0, false
}

// Figure is a titled group of series (one paper sub-figure).
type Figure struct {
	Title  string
	XLabel string
	YLabel string
	Series []*Series
}

// NewFigure creates an empty figure.
func NewFigure(title, xlabel, ylabel string) *Figure {
	return &Figure{Title: title, XLabel: xlabel, YLabel: ylabel}
}

// AddSeries appends and returns a new named series.
func (f *Figure) AddSeries(name string) *Series {
	s := &Series{Name: name}
	f.Series = append(f.Series, s)
	return s
}

// String renders all series as aligned columns: one row per distinct x.
func (f *Figure) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", f.Title)
	// Collect the union of x values.
	xset := map[float64]bool{}
	for _, s := range f.Series {
		for _, p := range s.Points {
			xset[p.X] = true
		}
	}
	xs := make([]float64, 0, len(xset))
	for x := range xset {
		xs = append(xs, x)
	}
	sort.Float64s(xs)
	// Header.
	fmt.Fprintf(&b, "%-12s", f.XLabel)
	for _, s := range f.Series {
		fmt.Fprintf(&b, "  %16s", s.Name)
	}
	b.WriteByte('\n')
	for _, x := range xs {
		fmt.Fprintf(&b, "%-12g", x)
		for _, s := range f.Series {
			if y, ok := s.YAt(x); ok {
				fmt.Fprintf(&b, "  %16.2f", y)
			} else {
				fmt.Fprintf(&b, "  %16s", "-")
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}
