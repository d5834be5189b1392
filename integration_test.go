package harvest

import (
	"bytes"
	"context"
	"testing"
	"time"

	"harvest/internal/datasets"
	"harvest/internal/engine"
	"harvest/internal/heatmap"
	"harvest/internal/hw"
	"harvest/internal/imaging"
	"harvest/internal/modelio"
	"harvest/internal/models"
	"harvest/internal/preprocess"
	"harvest/internal/serve"
	"harvest/internal/stats"
	"harvest/internal/stitch"
)

// TestFullSystemEndToEnd drives the complete HARVEST flow with real
// data: synthesize dataset samples, preprocess them on the CPU, serve
// them through the dynamic-batching server into a real model backend
// that round-tripped through checkpoint serialization, and render the
// predictions as a heatmap — every subsystem in one path.
func TestFullSystemEndToEnd(t *testing.T) {
	// 1. Dataset: corn growth stage tiles, materialized for real.
	spec, err := datasets.ByName(datasets.SlugCornGrowth)
	if err != nil {
		t.Fatal(err)
	}
	ds := datasets.MustNew(spec, 2026)
	const n = 6
	items := make([]preprocess.Item, n)
	for i := range items {
		items[i], err = preprocess.ItemFromDataset(ds, i)
		if err != nil {
			t.Fatal(err)
		}
	}

	// 2. Real CPU preprocessing to 32x32 model tensors.
	pre := &preprocess.CPUEngine{Platform: hw.A100(), Out: 32, Materialize: true}
	preRes, err := pre.ProcessBatch(items)
	if err != nil {
		t.Fatal(err)
	}
	if len(preRes.Tensors) != n {
		t.Fatalf("preprocessed %d tensors", len(preRes.Tensors))
	}

	// 3. Model: build, serialize, reload (checkpoint round trip), and
	//    attach as the real backend of an engine.
	trained, err := models.NewViTModel(models.MicroViTConfig(spec.Classes), stats.NewRNG(7))
	if err != nil {
		t.Fatal(err)
	}
	var ckpt bytes.Buffer
	if err := modelio.SaveViT(&ckpt, trained); err != nil {
		t.Fatal(err)
	}
	cp, err := modelio.Load(&ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := modelio.BuildEngine(cp, "fp16"); err != nil {
		t.Fatal(err)
	}
	backend, err := modelio.LoadViT(cp)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := engine.New(hw.A100(), models.NameViTTiny)
	if err != nil {
		t.Fatal(err)
	}
	eng.Real = backend

	// 4. Serve over the dynamic-batching server.
	srv := serve.NewServer()
	defer srv.Close()
	if err := srv.Register(serve.ModelConfig{
		Name:       "corn-growth",
		Engine:     eng,
		MaxBatch:   16,
		QueueDelay: time.Millisecond,
		InputSize:  32,
	}); err != nil {
		t.Fatal(err)
	}
	resp, err := srv.Submit(context.Background(), &serve.Request{
		ID: "field-1", Model: "corn-growth", Inputs: preRes.Tensors,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Outputs) != n {
		t.Fatalf("served %d outputs", len(resp.Outputs))
	}
	for _, logits := range resp.Outputs {
		if len(logits) != spec.Classes {
			t.Fatalf("logit width %d, want %d", len(logits), spec.Classes)
		}
	}

	// 5. Visualize as a field heatmap.
	hm, err := heatmap.FromScores(3, 2, resp.Outputs, 0)
	if err != nil {
		t.Fatal(err)
	}
	var img bytes.Buffer
	if err := hm.WritePPM(&img, 4); err != nil {
		t.Fatal(err)
	}
	decoded, err := imaging.DecodeBytes(img.Bytes(), imaging.FormatPPM)
	if err != nil {
		t.Fatal(err)
	}
	if decoded.W != 12 || decoded.H != 8 {
		t.Fatalf("heatmap %dx%d", decoded.W, decoded.H)
	}
}

// TestDroneWorkflowEndToEnd exercises the offline UAS path: stitch a
// capture grid, tile the mosaic, classify tiles with a real model, and
// verify tile/heatmap geometry stays consistent.
func TestDroneWorkflowEndToEnd(t *testing.T) {
	rng := stats.NewRNG(5)
	caps := make([]*imaging.Image, 6)
	for i := range caps {
		caps[i] = imaging.Synthesize(96, 96, imaging.KindRows, rng.Split())
	}
	grid, err := stitch.NewGrid(2, 3, 16, caps)
	if err != nil {
		t.Fatal(err)
	}
	mosaic := grid.Mosaic()
	tiles, err := stitch.TileImage(mosaic, 48, 48)
	if err != nil {
		t.Fatal(err)
	}
	cols, rows := stitch.GridDims(mosaic.W, mosaic.H, 48, 48)
	if len(tiles) != cols*rows {
		t.Fatalf("tile count %d != %dx%d", len(tiles), cols, rows)
	}

	backend, err := models.NewViTModel(models.MicroViTConfig(4), stats.NewRNG(9))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := engine.New(hw.Jetson(), models.NameViTTiny)
	if err != nil {
		t.Fatal(err)
	}
	eng.Real = backend
	inputs := make([][]float32, len(tiles))
	for i, tile := range tiles {
		small := imaging.Resize(tile.Image, 32, 32)
		inputs[i] = imaging.Normalize(small, imaging.ImageNetMean, imaging.ImageNetStd)
	}
	logits, st, err := eng.InferTensors(inputs, 32)
	if err != nil {
		t.Fatal(err)
	}
	if st.Batch != len(tiles) || st.Seconds <= 0 {
		t.Fatalf("engine stats %+v", st)
	}
	hm, err := heatmap.FromScores(cols, rows, logits, 0)
	if err != nil {
		t.Fatal(err)
	}
	if hm.Mean() < 0 || hm.Mean() > 1 {
		t.Fatalf("heatmap mean %v", hm.Mean())
	}
}
