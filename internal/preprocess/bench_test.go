package preprocess

import (
	"testing"

	"harvest/internal/hw"
	"harvest/internal/imaging"
	"harvest/internal/stats"
)

// bench4K returns one 4K UAS frame encoded as raw PPM — the
// bandwidth-bound decode case where buffer churn, not arithmetic,
// dominates the preprocessing cost.
func bench4K(b *testing.B) []byte {
	b.Helper()
	im := imaging.Synthesize(3840, 2160, imaging.KindRows, stats.NewRNG(42))
	data, err := imaging.EncodeBytes(im, imaging.FormatPPM)
	if err != nil {
		b.Fatal(err)
	}
	return data
}

// naiveOne is the un-fused per-image baseline: every stage decodes or
// transforms into a freshly allocated buffer, as the three-pass
// resize → crop → normalize pipeline did before fusion.
func naiveOne(b *testing.B, data []byte, out int) []float32 {
	im, err := imaging.DecodeBytes(data, imaging.FormatPPM)
	if err != nil {
		b.Fatal(err)
	}
	resized := imaging.ResizeShortSide(im, out)
	cropped := imaging.CenterCrop(resized, out, out)
	return imaging.Normalize(cropped, imaging.ImageNetMean, imaging.ImageNetStd)
}

// BenchmarkPreprocessFusedVsNaive isolates the kernel fusion win on a
// single goroutine: one decode+resize+crop+normalize pass into reused
// buffers versus four allocating passes.
func BenchmarkPreprocessFusedVsNaive(b *testing.B) {
	data := bench4K(b)
	const out = 224
	b.Run("naive", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			_ = naiveOne(b, data, out)
		}
	})
	b.Run("fused-pooled", func(b *testing.B) {
		e := &CPUEngine{Platform: hw.A100(), Out: out, Materialize: true,
			Tensors: &imaging.TensorPool{}}
		items := []Item{{Encoded: data, Format: imaging.FormatPPM}}
		b.ReportAllocs()
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			res, err := e.ProcessBatch(items)
			if err != nil {
				b.Fatal(err)
			}
			e.Recycle(res.Tensors)
		}
	})
}

// BenchmarkPreprocessPooledVsAlloc isolates the buffer-recycling win:
// the same fused engine with and without tensor/scratch reuse across
// batches.
func BenchmarkPreprocessPooledVsAlloc(b *testing.B) {
	data := bench4K(b)
	const batch = 4
	items := make([]Item, batch)
	for i := range items {
		items[i] = Item{Encoded: data, Format: imaging.FormatPPM}
	}
	run := func(b *testing.B, e *CPUEngine, recycle bool) {
		b.ReportAllocs()
		b.SetBytes(int64(len(data)) * batch)
		for i := 0; i < b.N; i++ {
			res, err := e.ProcessBatch(items)
			if err != nil {
				b.Fatal(err)
			}
			if recycle {
				e.Recycle(res.Tensors)
			}
		}
	}
	b.Run("alloc", func(b *testing.B) {
		run(b, &CPUEngine{Platform: hw.A100(), Out: 224, Materialize: true}, false)
	})
	b.Run("pooled", func(b *testing.B) {
		run(b, &CPUEngine{Platform: hw.A100(), Out: 224, Materialize: true,
			Tensors: &imaging.TensorPool{}}, true)
	})
}
