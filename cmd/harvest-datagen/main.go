// Command harvest-datagen materializes samples of the synthetic
// agriculture datasets to disk, in each dataset's native format.
//
// Usage:
//
//	harvest-datagen [flags]
//
// harvest-datagen -h lists every flag with its default.
package main

import (
	"flag"
	"fmt"
	"log"
	"path/filepath"

	"harvest/internal/datasets"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("harvest-datagen: ")
	var (
		dataset = flag.String("dataset", datasets.SlugPlantVillage, "dataset slug (or 'all')")
		count   = flag.Int("count", 16, "samples to materialize per dataset")
		out     = flag.String("out", "./data", "output directory")
		seed    = flag.Uint64("seed", 42, "generation seed")
	)
	flag.Parse()

	var specs []datasets.Spec
	if *dataset == "all" {
		specs = datasets.All()
	} else {
		spec, err := datasets.ByName(*dataset)
		if err != nil {
			log.Fatal(err)
		}
		specs = []datasets.Spec{spec}
	}
	for _, spec := range specs {
		ds, err := datasets.New(spec, *seed)
		if err != nil {
			log.Fatal(err)
		}
		dir := filepath.Join(*out, spec.Slug)
		m, err := datasets.Materialize(ds, dir, *count)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("wrote %d samples of %s to %s (+%s)",
			len(m.Entries), spec.Name, dir, datasets.ManifestName)
		// Round-trip check: the directory must open as a store.
		if _, err := datasets.OpenStore(dir); err != nil {
			log.Fatalf("store verification failed: %v", err)
		}
	}
	fmt.Println("done")
}
