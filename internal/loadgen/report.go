package loadgen

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"

	"harvest/internal/fleet"
	"harvest/internal/metrics"
	"harvest/internal/serve"
)

// latencyMs is a report's view of one latency distribution: the
// serving tier's millisecond summary (mean, min and max exact;
// percentiles bucket-interpolated) without the raw buckets, which a
// report has no aggregator for.
func latencyMs(h metrics.HistogramSnapshot) serve.LatencySummaryJSON {
	s := serve.LatencySummary(h)
	s.Buckets = nil
	return s
}

// ClassReport is one class's (or the whole run's) measured results
// over the warmup-excluded window.
type ClassReport struct {
	Class string `json:"class"`
	// Tenant echoes the class's tenant tag ("" = default tenant).
	Tenant string `json:"tenant,omitempty"`
	// Mode is "open" or "closed"; "mixed" for the run total when both
	// disciplines were present.
	Mode string `json:"mode"`
	// Offered counts scheduled in-window arrivals; Completed the
	// successful ones; Unfinished those still in flight when the drain
	// timeout expired (a saturation signal).
	Offered    int64 `json:"offered"`
	Completed  int64 `json:"completed"`
	Unfinished int64 `json:"unfinished"`
	// ThroughputRPS / ItemsPerSec are successful requests (images) per
	// second of measurement window.
	ThroughputRPS float64 `json:"throughput_rps"`
	ItemsPerSec   float64 `json:"items_per_sec"`
	// ServiceMs measures send→response; IntendedStartMs measures
	// scheduled-arrival→response, the coordinated-omission-safe number
	// (identical to ServiceMs for closed-loop classes).
	ServiceMs       serve.LatencySummaryJSON `json:"service_ms"`
	IntendedStartMs serve.LatencySummaryJSON `json:"intended_start_ms"`
	// Outcome counters: the designed overload responses (429
	// admission sheds, 504 deadline evictions) apart from faults.
	Rejected429 int64 `json:"rejected_429"`
	Expired504  int64 `json:"expired_504"`
	Server5xx   int64 `json:"server_5xx"`
	OtherHTTP   int64 `json:"other_http_errors"`
	// Timeouts are client-side deadline expiries; Transport covers
	// connection-level failures.
	Timeouts  int64 `json:"client_timeouts"`
	Transport int64 `json:"transport_errors"`
	// ErrorRate is non-OK completions over all completions.
	ErrorRate float64 `json:"error_rate"`
	// SLOMs is the class threshold; SLOAttainment the fraction of
	// *offered* requests that completed within it on intended-start
	// latency (unfinished and errored requests count as misses).
	SLOMs         float64 `json:"slo_ms"`
	SLOAttainment float64 `json:"slo_attainment"`
	// Timeline, when Config.Timeline is set, buckets the whole run
	// (warmup included) by intended-start second — the view an
	// autoscaler's load-step reaction shows up in. Per class only; the
	// run total omits it.
	Timeline []TimelineBucket `json:"timeline,omitempty"`
}

// TimelineBucket is one second of a class's run.
type TimelineBucket struct {
	TSec    int   `json:"t_sec"`
	Offered int64 `json:"offered"`
	OK      int64 `json:"ok"`
	SLOMet  int64 `json:"slo_met"`
	// Attainment is SLOMet/Offered for the second (1 when nothing was
	// offered).
	Attainment float64 `json:"attainment"`
}

// FleetReport carries the control plane's side of a managed-fleet run:
// the autoscaler's decision log and the registry's membership events.
type FleetReport struct {
	Decisions []fleet.Decision `json:"decisions,omitempty"`
	Events    []fleet.Event    `json:"events,omitempty"`
}

// Report is the machine-readable result of one run: the effective
// config (every default resolved) plus per-class and total results.
// Serialized as BENCH_<name>.json it is the regression artifact the
// perf trajectory is tracked with.
type Report struct {
	Name        string  `json:"name"`
	GeneratedAt string  `json:"generated_at"`
	Config      Config  `json:"config"`
	WindowSec   float64 `json:"window_sec"`
	// Classes reports per-class results in config order; Total merges
	// them (latency histograms merged exactly, counters summed).
	Classes []ClassReport `json:"classes"`
	Total   ClassReport   `json:"total"`
	// Fleet, when the target was a managed fleet, records the control
	// plane's decisions and membership events for the run.
	Fleet *FleetReport `json:"fleet,omitempty"`
}

// buildReport assembles the report from per-class collectors.
func buildReport(cfg Config, cols []*classStats, generatedAt time.Time) *Report {
	window := (cfg.Duration - cfg.Warmup).Seconds()
	r := &Report{
		Name:        cfg.Name,
		GeneratedAt: generatedAt.UTC().Format(time.RFC3339),
		Config:      cfg,
		WindowSec:   window,
	}
	var (
		totService, totIntended metrics.HistogramSnapshot
		totItems                int64
		totSLOMet               int64
		modes                   = map[string]bool{}
	)
	tot := &r.Total
	tot.Class = "total"
	for i, cs := range cols {
		cc := cfg.Classes[i]
		cr := ClassReport{
			Class:       cc.Class,
			Tenant:      cc.Tenant,
			Mode:        "open",
			Offered:     cs.offered.Load(),
			Completed:   cs.counts[outcomeOK].Load(),
			Rejected429: cs.counts[outcomeRejected429].Load(),
			Expired504:  cs.counts[outcomeExpired504].Load(),
			Server5xx:   cs.counts[outcomeServer5xx].Load(),
			OtherHTTP:   cs.counts[outcomeOtherHTTP].Load(),
			Timeouts:    cs.counts[outcomeTimeout].Load(),
			Transport:   cs.counts[outcomeTransport].Load(),
			SLOMs:       cc.SLOMs,
		}
		if !cc.Open() {
			cr.Mode = "closed"
		}
		modes[cr.Mode] = true
		completions := cs.completions()
		if u := cr.Offered - completions; u > 0 {
			cr.Unfinished = u
		}
		if completions > 0 {
			cr.ErrorRate = float64(completions-cr.Completed) / float64(completions)
		}
		if window > 0 {
			cr.ThroughputRPS = float64(cr.Completed) / window
			cr.ItemsPerSec = float64(cs.okItems.Load()) / window
		}
		if cr.Offered > 0 {
			cr.SLOAttainment = float64(cs.sloMet.Load()) / float64(cr.Offered)
		}
		service, intended := cs.service.Snapshot(), cs.intended.Snapshot()
		cr.ServiceMs = latencyMs(service)
		cr.IntendedStartMs = latencyMs(intended)
		for t := range cs.cells {
			cell := &cs.cells[t]
			b := TimelineBucket{
				TSec:       t,
				Offered:    cell.offered.Load(),
				OK:         cell.ok.Load(),
				SLOMet:     cell.sloMet.Load(),
				Attainment: 1,
			}
			if b.Offered > 0 {
				b.Attainment = float64(b.SLOMet) / float64(b.Offered)
			}
			cr.Timeline = append(cr.Timeline, b)
		}
		r.Classes = append(r.Classes, cr)

		tot.Offered += cr.Offered
		tot.Completed += cr.Completed
		tot.Unfinished += cr.Unfinished
		tot.Rejected429 += cr.Rejected429
		tot.Expired504 += cr.Expired504
		tot.Server5xx += cr.Server5xx
		tot.OtherHTTP += cr.OtherHTTP
		tot.Timeouts += cr.Timeouts
		tot.Transport += cr.Transport
		totItems += cs.okItems.Load()
		totSLOMet += cs.sloMet.Load()
		totService = totService.Merge(service)
		totIntended = totIntended.Merge(intended)
	}
	switch {
	case len(modes) > 1:
		tot.Mode = "mixed"
	case modes["closed"]:
		tot.Mode = "closed"
	default:
		tot.Mode = "open"
	}
	completions := tot.Completed + tot.Rejected429 + tot.Expired504 + tot.Server5xx +
		tot.OtherHTTP + tot.Timeouts + tot.Transport
	if completions > 0 {
		tot.ErrorRate = float64(completions-tot.Completed) / float64(completions)
	}
	if window > 0 {
		tot.ThroughputRPS = float64(tot.Completed) / window
		tot.ItemsPerSec = float64(totItems) / window
	}
	if tot.Offered > 0 {
		tot.SLOAttainment = float64(totSLOMet) / float64(tot.Offered)
	}
	tot.ServiceMs = latencyMs(totService)
	tot.IntendedStartMs = latencyMs(totIntended)
	return r
}

// Write serializes the report as indented JSON.
func (r *Report) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteFile writes the report to path (conventionally
// BENCH_<name>.json).
func (r *Report) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.Write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// DefaultPath returns the conventional artifact path for the run.
func (r *Report) DefaultPath() string { return fmt.Sprintf("BENCH_%s.json", r.Name) }

// Summary renders a short human-readable digest of the run.
func (r *Report) Summary() string {
	out := fmt.Sprintf("%s: %d offered, %d completed (%.1f req/s, %.1f img/s), error rate %.2f%%\n",
		r.Name, r.Total.Offered, r.Total.Completed,
		r.Total.ThroughputRPS, r.Total.ItemsPerSec, r.Total.ErrorRate*100)
	for _, c := range append(r.Classes, r.Total) {
		label := c.Class
		if c.Tenant != "" {
			label = c.Tenant + "/" + c.Class
		}
		out += fmt.Sprintf("  %-16s %-6s offered=%-6d ok=%-6d 429=%-5d 504=%-4d 5xx=%-3d unfin=%-4d "+
			"service p50/p99 = %.1f/%.1f ms, intended p50/p99 = %.1f/%.1f ms, SLO(%.1fms) %.1f%%\n",
			label, c.Mode, c.Offered, c.Completed, c.Rejected429, c.Expired504, c.Server5xx, c.Unfinished,
			c.ServiceMs.P50Ms, c.ServiceMs.P99Ms,
			c.IntendedStartMs.P50Ms, c.IntendedStartMs.P99Ms,
			c.SLOMs, c.SLOAttainment*100)
	}
	return out
}
