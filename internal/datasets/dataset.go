package datasets

import (
	"fmt"

	"harvest/internal/imaging"
	"harvest/internal/stats"
)

// Record describes one sample's metadata without materializing pixels.
type Record struct {
	Index int
	W, H  int
	Label int // class id; -1 when the dataset is unlabeled (CRSA)
}

// Dataset is a deterministic synthetic dataset: record i always has the
// same size, label and pixel content for a given seed, regardless of
// access order.
type Dataset struct {
	spec Spec
	seed uint64
}

// New creates a dataset from a spec. The seed namespaces all content.
func New(spec Spec, seed uint64) (*Dataset, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return &Dataset{spec: spec, seed: seed}, nil
}

// MustNew is New but panics on error; for use with the built-in specs.
func MustNew(spec Spec, seed uint64) *Dataset {
	d, err := New(spec, seed)
	if err != nil {
		panic(err)
	}
	return d
}

// Spec returns the dataset's specification.
func (d *Dataset) Spec() Spec { return d.spec }

// Len returns the number of samples.
func (d *Dataset) Len() int { return d.spec.Samples }

// recordRNG returns the per-record RNG; record identity is a pure
// function of (seed, index).
func (d *Dataset) recordRNG(i int) *stats.RNG {
	return stats.NewRNG(d.seed ^ (uint64(i)+1)*0x9E3779B97F4A7C15)
}

// Record returns sample i's metadata.
func (d *Dataset) Record(i int) (Record, error) {
	if i < 0 || i >= d.spec.Samples {
		return Record{}, fmt.Errorf("datasets: index %d out of range [0,%d)", i, d.spec.Samples)
	}
	r := d.recordRNG(i)
	w, h := d.spec.Sizes.Sample(r)
	label := -1
	if d.spec.Classes > 0 {
		label = r.Intn(d.spec.Classes)
	}
	return Record{Index: i, W: w, H: h, Label: label}, nil
}

// Image materializes sample i's pixels.
func (d *Dataset) Image(i int) (*imaging.Image, error) {
	rec, err := d.Record(i)
	if err != nil {
		return nil, err
	}
	// Fresh stream for content so size/label draws stay stable even if
	// texture generation changes its consumption pattern.
	content := stats.NewRNG(d.seed ^ 0xA5A5A5A5 ^ (uint64(i)+1)*0xD1B54A32D192ED03)
	return imaging.Synthesize(rec.W, rec.H, d.spec.Texture, content), nil
}

// Encoded materializes sample i in the dataset's on-disk format, i.e.
// the bytes the inference frontend would read or receive.
func (d *Dataset) Encoded(i int) ([]byte, Record, error) {
	rec, err := d.Record(i)
	if err != nil {
		return nil, Record{}, err
	}
	im, err := d.Image(i)
	if err != nil {
		return nil, Record{}, err
	}
	data, err := imaging.EncodeBytes(im, d.spec.Format)
	if err != nil {
		return nil, Record{}, err
	}
	return data, rec, nil
}

// Sizes returns up to n sampled sizes for density plots, using the
// dataset's own deterministic per-record sizes.
func (d *Dataset) Sizes(n int) []SizeSample {
	if n > d.spec.Samples {
		n = d.spec.Samples
	}
	out := make([]SizeSample, n)
	for i := range out {
		rec, _ := d.Record(i)
		out[i] = SizeSample{W: rec.W, H: rec.H}
	}
	return out
}
