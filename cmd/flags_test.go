// Package cmd_test pins the flag surface of every binary, checks that
// the documented recipes pass only flags that exist, and runs the
// serving daemons' start-to-SIGTERM lifecycle.
package cmd_test

import (
	"flag"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/*.help from the binaries' current -h output")

// binaries lists every command under cmd/.
var binaries = []string{
	"harvest-bench", "harvest-client", "harvest-datagen", "harvest-fleet",
	"harvest-loadgen", "harvest-plan", "harvest-router", "harvest-serve",
}

var (
	buildOnce sync.Once
	binDir    string
	buildErr  error
)

func TestMain(m *testing.M) {
	code := m.Run()
	if binDir != "" {
		os.RemoveAll(binDir)
	}
	os.Exit(code)
}

// built returns the path of bin, building all eight binaries on the
// first call.
func built(t *testing.T, bin string) string {
	t.Helper()
	buildOnce.Do(func() {
		// The binaries are built from the whole module, which the test
		// cache cannot see: read the sources here so an edit reruns
		// the tests.
		for _, root := range []string{".", "../internal"} {
			_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
				if err == nil && !d.IsDir() && strings.HasSuffix(path, ".go") {
					_, _ = os.ReadFile(path)
				}
				return nil
			})
		}
		if binDir, buildErr = os.MkdirTemp("", "harvest-cmd-"); buildErr != nil {
			return
		}
		args := []string{"build", "-o", binDir}
		for _, b := range binaries {
			args = append(args, "./"+b)
		}
		if out, err := exec.Command("go", args...).CombinedOutput(); err != nil {
			buildErr = err
			os.Stderr.Write(out)
		}
	})
	if buildErr != nil {
		t.Fatalf("go build: %v", buildErr)
	}
	return filepath.Join(binDir, bin)
}

// helpText is bin's -h output (flag.PrintDefaults: name, type, usage
// and non-zero default of every flag, sorted) without its first line,
// which names the binary's path.
func helpText(t *testing.T, bin string) string {
	// -h exits 0 or 2 depending on the Go release; only the text matters.
	out, _ := exec.Command(built(t, bin), "-h").CombinedOutput()
	_, text, _ := strings.Cut(string(out), "\n")
	return text
}

// TestFlagSurface compares each binary's -h text with the checked-in
// copy: a refactor of how flags reach the configs must add, drop,
// rename, re-type or re-default none of them.
func TestFlagSurface(t *testing.T) {
	for _, bin := range binaries {
		got := helpText(t, bin)
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
