package cmd_test

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// recipeDocs are the files whose command lines readers copy, the
// verify recipe (a dot directory's skills/verify/SKILL.md) last.
var recipeDocs = []string{"../README.md", "../EXPERIMENTS.md", "../Makefile"}

var (
	// buildAlias matches `go build -o /tmp/hserve ./cmd/harvest-serve`,
	// after which a recipe runs the binary by that path.
	buildAlias = regexp.MustCompile(`go build -o (\S+) \./cmd/(harvest-[a-z]+)`)
	flagToken  = regexp.MustCompile(`^\[?-([a-z][a-z0-9-]*)`)
)

// recipeFlags returns, for each binary a recipe in text runs, the
// flags it passes. A run is a binary name (or a path it was built to)
// followed by whitespace; its flags are the tokens after it, each
// optionally followed by one value, up to the first other token.
func recipeFlags(text string, names map[string]string) map[string][]string {
	text = strings.ReplaceAll(text, "\\\n", " ")
	for _, m := range buildAlias.FindAllStringSubmatch(text, -1) {
		names[m[1]] = m[2]
	}
	uses := map[string][]string{}
	for _, line := range strings.Split(text, "\n") {
		toks := strings.Fields(line)
		for i, tok := range toks {
			bin, ok := names[strings.TrimPrefix(tok, "./cmd/")]
			if !ok {
				continue
			}
			for j := i + 1; j < len(toks); j++ {
				m := flagToken.FindStringSubmatch(toks[j])
				if m == nil {
					break
				}
				uses[bin] = append(uses[bin], m[1])
				if j+1 < len(toks) && !flagToken.MatchString(toks[j+1]) && !strings.Contains(toks[j], "=") {
					j++ // the flag's value
				}
			}
		}
	}
	return uses
}

// TestRecipeFlags checks that every flag a documented recipe passes to
// one of the binaries exists in that binary's golden -h text, so a
// deleted or renamed flag cannot leave a recipe that fails to parse.
func TestRecipeFlags(t *testing.T) {
	names := map[string]string{}
	defined := map[string]map[string]bool{}
	for _, bin := range binaries {
		names[bin] = bin
		help, err := os.ReadFile(filepath.Join("testdata", bin+".help"))
		if err != nil {
			t.Fatal(err)
		}
		defined[bin] = map[string]bool{}
		for _, line := range strings.Split(string(help), "\n") {
			if strings.HasPrefix(line, "  -") {
				name, _, _ := strings.Cut(strings.TrimPrefix(line, "  -"), " ")
				defined[bin][name] = true
			}
		}
	}
	verify, _ := filepath.Glob("../.*/skills/verify/SKILL.md")
	if len(verify) != 1 {
		t.Fatalf("verify recipe: found %v, want one file", verify)
	}
	n := 0
	for _, doc := range append(recipeDocs, verify...) {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for bin, flags := range recipeFlags(string(text), names) {
			for _, f := range flags {
				n++
				if !defined[bin][f] {
					t.Errorf("%s: a recipe passes -%s to %s, which has no such flag", doc, f, bin)
				}
			}
		}
	}
	if n < 100 {
		t.Errorf("found only %d flag uses in the recipes; the extraction has stopped seeing them", n)
	}
	t.Logf("%d flag uses checked", n)
}
