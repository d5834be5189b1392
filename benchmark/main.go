// Command benchmark is the repo's performance instrument: seeded
// workloads against in-process tiers on real loopback sockets, measured
// end to end at the public Go client API with tracing off, then traced
// and timed layer by layer. See README.md in this directory.
//
//	benchmark [run] --workload <name|all> --seed N --seconds S --trace 0|1 [--out FILE]
//	benchmark layers --seed N --seconds S
//	benchmark compare OLD.json[,OLD2.json...] NEW.json[,NEW2.json...]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"
)

func main() {
	args := os.Args[1:]
	cmd := "run"
	if len(args) > 0 {
		switch args[0] {
		case "run", "layers", "compare":
			cmd, args = args[0], args[1:]
		}
	}
	var err error
	switch cmd {
	case "run":
		err = cmdRun(args)
	case "layers":
		err = cmdLayers(args)
	case "compare":
		err = cmdCompare(args)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// defaultSeed is the seed of a run that names none. README.md also names
// a held-out seed, for checking a claim on inputs that were not looked at
// while a change was written.
const defaultSeed = 1

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	name := fs.String("workload", "all", "workload name, or all")
	seed := fs.Uint64("seed", defaultSeed, "input seed")
	seconds := fs.Float64("seconds", 18, "length of the measured window")
	traced := fs.Int("trace", 0, "0: end-to-end run, tracing off; 1: traced run and isolated layer calls")
	out := fs.String("out", "", "append the run to this result file")
	traceOut := fs.String("trace-out", "", "Chrome trace of the traced pass (default .bench_build/trace-<workload>.json)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *seconds <= 0 || *traced < 0 || *traced > 1 || fs.NArg() > 0 {
		return fmt.Errorf("run: need --seconds > 0, --trace 0 or 1, and no positional arguments")
	}
	if *name == "all" {
		return runAll(*seed, *seconds, *out)
	}
	w := findWorkload(*name)
	if w == nil {
		return fmt.Errorf("unknown workload %q", *name)
	}
	var r *result
	var err error
	if *traced == 1 {
		if *traceOut == "" {
			*traceOut = filepath.Join(".bench_build", "trace-"+w.name()+".json")
		}
		r, err = runTraced(w, *seed, *seconds, *traceOut)
	} else {
		r, err = runEndToEnd(w, *seed, *seconds)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", w.name(), err)
	}
	r.print(os.Stdout)
	if *out != "" {
		if err := appendResult(*out, r); err != nil {
			return err
		}
	}
	line, err := json.Marshal(r.contract())
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !r.Correct {
		return fmt.Errorf("%s: %d correctness or conservation check(s) failed", w.name(), len(r.Failures))
	}
	return nil
}

// runAll runs every workload, untraced then traced, each in a child
// process of its own, so that set-up time, peak memory and collector
// state of one workload do not leak into the next.
func runAll(seed uint64, seconds float64, out string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	failed := 0
	for _, w := range workloads() {
		for _, traced := range []string{"0", "1"} {
			args := []string{"run", "--workload", w.name(), "--seed", strconv.FormatUint(seed, 10),
				"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", traced}
			if out != "" {
				args = append(args, "--out", out)
			}
			child := exec.Command(self, args...)
			child.Stdout, child.Stderr = os.Stdout, os.Stderr
			if err := child.Run(); err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s (trace %s): %v\n", w.name(), traced, err)
				failed++
			}
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d run(s) failed", failed)
	}
	return nil
}

func cmdLayers(args []string) error {
	fs := flag.NewFlagSet("layers", flag.ContinueOnError)
	seed := fs.Uint64("seed", defaultSeed, "input seed")
	seconds := fs.Float64("seconds", 10, "time budget for all cases together")
	if err := fs.Parse(args); err != nil {
		return err
	}
	res, err := runLayerCases(*seed, time.Duration(*seconds*float64(time.Second)))
	if err != nil {
		return err
	}
	fmt.Printf("%-42s %14s %14s %10s\n", "case", "ns/op", "allocs/op", "ops")
	for _, l := range res {
		fmt.Printf("%-42s %14.1f %14.2f %10d\n", l.Name, l.NsPerOp, l.AllocsPerOp, l.Ops)
	}
	return nil
}
