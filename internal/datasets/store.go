package datasets

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"harvest/internal/imaging"
)

// ManifestName is the index file a materialized dataset directory
// carries.
const ManifestName = "manifest.json"

// ManifestEntry describes one materialized sample.
type ManifestEntry struct {
	File  string `json:"file"`
	Index int    `json:"index"`
	W     int    `json:"w"`
	H     int    `json:"h"`
	Label int    `json:"label"`
}

// Manifest indexes a materialized dataset directory, making synthetic
// data behave like the on-disk datasets the HARVEST frontend reads
// (paper §3: the frontend "transmits or locally reads input data").
type Manifest struct {
	Dataset string          `json:"dataset"`
	Format  string          `json:"format"`
	Seed    uint64          `json:"seed"`
	Entries []ManifestEntry `json:"entries"`
}

// Materialize writes the first count samples of the dataset into dir in
// the dataset's native format plus a manifest, returning the manifest.
func Materialize(ds *Dataset, dir string, count int) (*Manifest, error) {
	if count <= 0 {
		return nil, fmt.Errorf("datasets: non-positive count %d", count)
	}
	if count > ds.Len() {
		count = ds.Len()
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("datasets: %w", err)
	}
	spec := ds.Spec()
	ext := "jpg"
	if spec.Format == imaging.FormatPPM {
		ext = "ppm"
	}
	m := &Manifest{Dataset: spec.Slug, Format: spec.Format.String(), Seed: ds.seed}
	for i := 0; i < count; i++ {
		data, rec, err := ds.Encoded(i)
		if err != nil {
			return nil, err
		}
		name := fmt.Sprintf("%06d.%s", i, ext)
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			return nil, fmt.Errorf("datasets: %w", err)
		}
		m.Entries = append(m.Entries, ManifestEntry{
			File: name, Index: rec.Index, W: rec.W, H: rec.H, Label: rec.Label,
		})
	}
	blob, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(dir, ManifestName), blob, 0o644); err != nil {
		return nil, fmt.Errorf("datasets: %w", err)
	}
	return m, nil
}

// Store is a materialized dataset directory and its manifest.
type Store struct {
	Dir      string
	Manifest Manifest
}

// OpenStore opens a directory written by Materialize.
func OpenStore(dir string) (*Store, error) {
	blob, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		return nil, fmt.Errorf("datasets: open store: %w", err)
	}
	var m Manifest
	if err := json.Unmarshal(blob, &m); err != nil {
		return nil, fmt.Errorf("datasets: manifest: %w", err)
	}
	spec, err := ByName(m.Dataset)
	if err != nil {
		return nil, err
	}
	if got := spec.Format.String(); got != m.Format {
		return nil, fmt.Errorf("datasets: manifest format %q, spec says %q", m.Format, got)
	}
	for i, e := range m.Entries {
		if e.File == "" || e.W <= 0 || e.H <= 0 {
			return nil, fmt.Errorf("datasets: manifest entry %d invalid: %+v", i, e)
		}
	}
	return &Store{Dir: dir, Manifest: m}, nil
}
