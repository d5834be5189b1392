package experiments

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/ (artifact CSVs and modeled-number pins) from the current output")

// deterministicIDs is every artifact whose quick-mode output depends
// only on the model and the seed. fig7 is left out: it times the host.
func deterministicIDs() []string {
	var ids []string
	for _, id := range append(IDs(), ExtensionIDs()...) {
		if id != "fig7" {
			ids = append(ids, id)
		}
	}
	return ids
}

// pinnedCSV is the artifact's table CSV followed by every figure point
// at full float64 precision (figure-only artifacts have no tables).
func pinnedCSV(a *Artifact) string {
	var b strings.Builder
	b.WriteString(a.RenderCSV())
	for _, f := range a.Figures {
		fmt.Fprintf(&b, "# %s\nseries,x,y\n", f.Title)
		for _, s := range f.Series {
			for _, p := range s.Points {
				fmt.Fprintf(&b, "%s,%s,%s\n", s.Name,
					strconv.FormatFloat(p.X, 'g', -1, 64), strconv.FormatFloat(p.Y, 'g', -1, 64))
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// TestArtifactCSVGolden pins the quick-mode CSV of every deterministic
// artifact, so a refactor of the models beneath them is seen to move
// no number. `go test ./internal/experiments -update` rewrites the
// goldens after a deliberate change.
func TestArtifactCSVGolden(t *testing.T) {
	for _, id := range deterministicIDs() {
		a, err := RunAny(id, quickOpts())
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		got := pinnedCSV(a)
		golden := filepath.Join("testdata", id+".csv")
		if *update {
			if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatalf("%s: %v (run with -update to create it)", id, err)
		}
		if got != string(want) {
			t.Errorf("%s CSV changed (`go test ./internal/experiments -update` rewrites it after a deliberate change):\n--- want\n%s--- got\n%s",
				id, want, got)
		}
	}
}

// TestArtifactCSVDeterministic runs each deterministic artifact twice:
// the goldens are only meaningful if a rerun is byte-identical.
func TestArtifactCSVDeterministic(t *testing.T) {
	for _, id := range deterministicIDs() {
		var out [2]string
		for i := range out {
			a, err := RunAny(id, quickOpts())
			if err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			out[i] = pinnedCSV(a)
		}
		if out[0] != out[1] {
			t.Errorf("%s: two quick-mode runs differ", id)
		}
	}
}
