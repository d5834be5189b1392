// Package experiments contains one runner per evaluation artifact of
// the paper — Tables 1-3 and Figures 4-8 — each regenerating the same
// rows/series the paper reports from this repository's substrates, plus
// paper-anchor comparisons used by tests and EXPERIMENTS.md.
package experiments

import (
	"fmt"
	"strings"

	"harvest/internal/metrics"
)

// Artifact is one regenerated table or figure.
type Artifact struct {
	ID    string // "table1" ... "fig8"
	Title string

	Tables  []*metrics.Table
	Figures []*metrics.Figure
	Notes   []string
}

// AddNote appends a free-form note line.
func (a *Artifact) AddNote(format string, args ...any) {
	a.Notes = append(a.Notes, fmt.Sprintf(format, args...))
}

// Render produces the printable artifact.
func (a *Artifact) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s: %s ===\n\n", a.ID, a.Title)
	for _, t := range a.Tables {
		b.WriteString(t.String())
		b.WriteByte('\n')
	}
	for _, f := range a.Figures {
		b.WriteString(f.String())
		b.WriteByte('\n')
	}
	for _, n := range a.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// RenderCharts renders the artifact's figures as ASCII charts (the
// visual counterpart of the paper's log-scaled plots).
func (a *Artifact) RenderCharts(logX, logY bool) string {
	var b strings.Builder
	for _, f := range a.Figures {
		b.WriteString(f.Chart(metrics.ChartOptions{LogX: logX, LogY: logY}))
		b.WriteByte('\n')
	}
	return b.String()
}

// RenderCSV renders the artifact's tables as CSV blocks.
func (a *Artifact) RenderCSV() string {
	var b strings.Builder
	for _, t := range a.Tables {
		if t.Title != "" {
			fmt.Fprintf(&b, "# %s\n", t.Title)
		}
		b.WriteString(t.CSV())
		b.WriteByte('\n')
	}
	return b.String()
}

// IDs lists all artifact identifiers in paper order.
func IDs() []string {
	return []string{"table1", "table2", "table3", "fig4", "fig5", "fig6", "fig7", "fig8"}
}

// Options tunes experiment runtime cost.
type Options struct {
	// Quick reduces sample counts for CPU-measured experiments (used
	// by tests); the full counts are used otherwise.
	Quick bool
	// HostGEMM additionally runs a real GEMM benchmark on this machine
	// for the Table 1 methodology note.
	HostGEMM bool
	// Seed namespaces all synthetic data.
	Seed uint64
}

// Run executes the artifact with the given id.
func Run(id string, opts Options) (*Artifact, error) {
	switch id {
	case "table1":
		return Table1(opts)
	case "table2":
		return Table2(opts)
	case "table3":
		return Table3(opts)
	case "fig4":
		return Fig4(opts)
	case "fig5":
		return Fig5(opts)
	case "fig6":
		return Fig6(opts)
	case "fig7":
		return Fig7(opts)
	case "fig8":
		return Fig8(opts)
	}
	return nil, fmt.Errorf("experiments: unknown artifact %q (want one of %v)", id, IDs())
}
