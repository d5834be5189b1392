package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"slices"
	"sort"
	"strings"
)

// benchmarkSpec is BENCHMARK.json.
type benchmarkSpec struct {
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(path string) (*benchmarkSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchmarkSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// Verdicts of one (metric × workload) row.
const (
	verdictImproved   = "improved"
	verdictUnchanged  = "unchanged"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// quartiles returns the first quartile, median and third quartile the
// way Python's statistics.quantiles(xs, n=4) does (exclusive method),
// which is what the driver uses. One value is its own quartiles.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(math.Floor(pos))
		j = max(1, min(j, n-1))
		d := pos - float64(j)
		return s[j-1] + d*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

// row is one compared (metric × workload) pair.
type row struct {
	workload, metric, unit string
	oldQ, newQ             [3]float64
	nOld, nNew             int
	change                 float64 // share of the old median; positive is worse
	verdict                string
}

// judge compares two sets of runs of one metric. bound is the share of
// the old median by which the metric may worsen. A difference inside
// the bound is unchanged. When the runs of either side spread wider
// than the bound the medians cannot be trusted to that precision and
// the row is unresolved, unless every run of one side beats every run
// of the other.
func judge(old, new []float64, better string, bound float64) (change float64, verdict string) {
	_, om, _ := quartiles(old)
	_, nm, _ := quartiles(new)
	if om == 0 {
		if nm == 0 {
			return 0, verdictUnchanged
		}
		return math.Inf(1), verdictUnresolved
	}
	change = (nm - om) / math.Abs(om)
	if better == "higher" {
		change = -change
	}
	spread := func(xs []float64) float64 {
		q1, _, q3 := quartiles(xs)
		return (q3 - q1) / math.Abs(om)
	}
	separated := slices.Max(new) < slices.Min(old) || slices.Min(new) > slices.Max(old)
	if max(spread(old), spread(new)) > bound && !separated {
		return change, verdictUnresolved
	}
	switch {
	case change > bound:
		return change, verdictRegressed
	case change < -bound:
		return change, verdictImproved
	}
	return change, verdictUnchanged
}

// loadRuns reads the end-to-end runs of a comma-separated list of
// result files. Traced runs and runs the noise guard marked invalid are
// left out.
func loadRuns(list string) ([]result, error) {
	var runs []result
	for _, path := range strings.Split(list, ",") {
		b, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var rf resultFile
		if err := json.Unmarshal(b, &rf); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if rf.Schema != schemaVersion {
			return nil, fmt.Errorf("%s holds schema %q, this harness reads %q", path, rf.Schema, schemaVersion)
		}
		for _, r := range rf.Runs {
			if !r.Traced && r.Valid {
				runs = append(runs, r)
			}
		}
	}
	return runs, nil
}

// compareRuns builds one row per (metric × workload) and reports the
// workloads whose failure share rose.
func compareRuns(spec *benchmarkSpec, old, new []result) (rows []row, moreFailures []string) {
	values := func(runs []result, workload, metric string) []float64 {
		var xs []float64
		for _, r := range runs {
			if m, ok := r.EndToEnd[metric]; ok && r.Workload == workload {
				xs = append(xs, m.Value)
			}
		}
		return xs
	}
	failShare := func(runs []result, workload string) float64 {
		failed, attempted := 0, 0
		for _, r := range runs {
			if r.Workload == workload {
				failed, attempted = failed+r.OpsFailed, attempted+r.OpsAttempted
			}
		}
		return float64(failed) / float64(max(attempted, 1))
	}
	for _, w := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			o, n := values(old, w.Name, m.Name), values(new, w.Name, m.Name)
			if len(o) == 0 || len(n) == 0 {
				continue
			}
			r := row{workload: w.Name, metric: m.Name, unit: m.Unit, nOld: len(o), nNew: len(n)}
			r.oldQ[0], r.oldQ[1], r.oldQ[2] = quartiles(o)
			r.newQ[0], r.newQ[1], r.newQ[2] = quartiles(n)
			r.change, r.verdict = judge(o, n, m.Better, m.Bound)
			rows = append(rows, r)
		}
		if o, n := failShare(old, w.Name), failShare(new, w.Name); n > o {
			moreFailures = append(moreFailures, fmt.Sprintf("%s: failed share of ops rose from %.4g to %.4g", w.Name, o, n))
		}
	}
	return rows, moreFailures
}

func cmdCompare(args []string) error {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	specPath := fs.String("spec", "BENCHMARK.json", "the benchmark's metric list and bounds")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("compare: want OLD.json[,...] NEW.json[,...]")
	}
	spec, err := loadSpec(*specPath)
	if err != nil {
		return err
	}
	old, err := loadRuns(fs.Arg(0))
	if err != nil {
		return err
	}
	new, err := loadRuns(fs.Arg(1))
	if err != nil {
		return err
	}
	rows, moreFailures := compareRuns(spec, old, new)
	if len(rows) == 0 {
		return fmt.Errorf("compare: the two sets share no workload")
	}
	fmt.Printf("%-16s %-22s %-6s %34s %34s %8s  %s\n", "workload", "metric", "unit",
		"old  q1 / median / q3 (n)", "new  q1 / median / q3 (n)", "change", "verdict")
	regressed := 0
	for _, r := range rows {
		fmt.Printf("%-16s %-22s %-6s %9.4g /%9.4g /%9.4g (%2d) %9.4g /%9.4g /%9.4g (%2d) %+7.1f%%  %s\n",
			r.workload, r.metric, r.unit, r.oldQ[0], r.oldQ[1], r.oldQ[2], r.nOld,
			r.newQ[0], r.newQ[1], r.newQ[2], r.nNew, r.change*100, r.verdict)
		if r.verdict == verdictRegressed {
			regressed++
		}
	}
	fmt.Println("change is the new median against the old, as a share of the old; positive is worse.")
	for _, f := range moreFailures {
		fmt.Println("!!", f)
	}
	if regressed > 0 || len(moreFailures) > 0 {
		return fmt.Errorf("compare: %d row(s) regressed, %d workload(s) fail more often", regressed, len(moreFailures))
	}
	return nil
}
