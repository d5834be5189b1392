// Command harvest-bench regenerates the paper's evaluation artifacts
// (Tables 1-3, Figures 4-8) from this repository's substrates.
//
// Usage:
//
//	harvest-bench [flags]
//
// harvest-bench -h lists every flag with its default.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"harvest/internal/experiments"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("harvest-bench: ")
	var (
		artifact  = flag.String("artifact", "all", "artifact: all, extensions, "+strings.Join(append(experiments.IDs(), experiments.ExtensionIDs()...), ", "))
		quick     = flag.Bool("quick", false, "reduce sample counts for a fast run")
		hostGEMM  = flag.Bool("hostgemm", false, "also run a real GEMM benchmark on this machine (table1)")
		gemmBench = flag.String("gemmbench", "", "measure the real compute backend (GEMM GFLOPS and model images/sec by precision), write a JSON report to this path, and exit")
		anchors   = flag.Bool("anchors", false, "print paper-vs-measured anchor comparisons and exit")
		seed      = flag.Uint64("seed", 42, "seed for synthetic data")
		format    = flag.String("format", "text", "output format: text, csv or chart")
	)
	flag.Parse()

	if *gemmBench != "" {
		if err := runGemmBench(*gemmBench); err != nil {
			log.Fatal(err)
		}
		return
	}

	if *anchors {
		list, err := experiments.CompareAnchors()
		if err != nil {
			log.Fatal(err)
		}
		for _, an := range list {
			fmt.Println(an)
		}
		return
	}

	opts := experiments.Options{Quick: *quick, HostGEMM: *hostGEMM, Seed: *seed}
	ids := []string{*artifact}
	switch *artifact {
	case "all":
		ids = experiments.IDs()
	case "extensions":
		ids = experiments.ExtensionIDs()
	}
	for _, id := range ids {
		a, err := experiments.RunAny(id, opts)
		if err != nil {
			log.Fatalf("artifact %s: %v", id, err)
		}
		var out string
		switch *format {
		case "text":
			out = a.Render()
		case "csv":
			out = a.RenderCSV()
		case "chart":
			// The paper's figure axes are log-log for fig5/fig6.
			logScale := id == "fig5" || id == "fig6"
			out = a.Render() + a.RenderCharts(logScale, logScale)
		default:
			log.Fatalf("unknown format %q", *format)
		}
		if _, err := fmt.Fprintln(os.Stdout, out); err != nil {
			log.Fatal(err)
		}
	}
}
