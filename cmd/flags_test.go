// Package cmd_test pins the flag surface of the serving binaries: a
// refactor of how flags reach the configs must add, drop, rename,
// re-type or re-default none of them.
package cmd_test

import (
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/*.help from the binaries' current -h output")

// TestFlagSurface compares each binary's -h text (flag.PrintDefaults:
// name, type, usage and non-zero default of every flag, sorted) with
// the checked-in copy.
func TestFlagSurface(t *testing.T) {
	for _, bin := range []string{"harvest-serve", "harvest-router", "harvest-fleet", "harvest-loadgen"} {
		// The flags live in a child process's sources, which the test
		// cache cannot see: read them here so an edit reruns the test.
		srcs, _ := filepath.Glob(filepath.Join(bin, "*.go"))
		for _, src := range srcs {
			if _, err := os.ReadFile(src); err != nil {
				t.Fatal(err)
			}
		}
		// -h exits 0 or 2 depending on the Go release; only the text matters.
		out, _ := exec.Command("go", "run", "./"+bin, "-h").CombinedOutput()
		// The first line names the temporary binary go run built.
		_, got, _ := strings.Cut(string(out), "\n")
		golden := filepath.Join("testdata", bin+".help")
		if *update {
			if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatal(err)
		}
		if got != string(want) {
			t.Errorf("%s flag surface changed (`go test ./cmd -update` rewrites the golden after a deliberate change):\n--- want\n%s--- got\n%s",
				bin, want, got)
		}
	}
}
