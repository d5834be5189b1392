// Encoded-image inference: clients at the edge of the compute
// continuum ship camera frames, not tensors. This example registers a
// model with a real (micro-ViT) backend and a CPU preprocessing engine,
// then POSTs JPEG and raw (PPM) frames to /v2/models/leafnet/infer, as
// raw bytes after the JSON (images_b64 in plain JSON works too). The
// server decodes, resizes and normalizes inside its admission-bounded
// preprocess stage, so timings_ms of each response and the /v2/metrics
// preprocess summary show where Fig. 7's preprocessing cost lands.
package main

import (
	"context"
	"fmt"
	"log"
	"net/http/httptest"
	"time"

	"harvest/internal/engine"
	"harvest/internal/hw"
	"harvest/internal/imaging"
	"harvest/internal/models"
	"harvest/internal/preprocess"
	"harvest/internal/serve"
	"harvest/internal/stats"
)

func main() {
	log.SetFlags(0)

	platform := hw.A100()
	eng, err := engine.New(platform, models.NameViTTiny)
	if err != nil {
		log.Fatal(err)
	}
	// A real forward pass so classifications depend on pixel content.
	real, err := models.NewViTModel(models.MicroViTConfig(4), stats.NewRNG(11))
	if err != nil {
		log.Fatal(err)
	}
	eng.Real = real

	pre := &preprocess.CPUEngine{
		Platform:    platform,
		Out:         32, // must match the backend's input resolution
		Materialize: true,
		Workers:     4,
	}
	defer pre.Close()

	srv := serve.NewServer()
	defer srv.Close()
	if err := srv.Register(serve.ModelConfig{
		Name:       "leafnet",
		Engine:     eng,
		MaxBatch:   16,
		QueueDelay: time.Millisecond,
		InputSize:  32,
		Preproc:    pre,
	}); err != nil {
		log.Fatal(err)
	}

	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := serve.NewClient(ts.URL)
	ctx := context.Background()
	if err := client.WaitReady(ctx); err != nil {
		log.Fatal(err)
	}

	frames := []struct {
		name   string
		kind   imaging.SyntheticKind
		format imaging.Format
	}{
		{"leaf-closeup", imaging.KindLeaf, imaging.FormatJPEG},
		{"row-crop-uas", imaging.KindRows, imaging.FormatJPEG},
		{"soil-residue", imaging.KindSoil, imaging.FormatPPM},
		{"fruit-detect", imaging.KindFruit, imaging.FormatPPM},
	}
	rng := stats.NewRNG(7)
	fmt.Println("frame          format  class  preprocess(ms)  compute(ms)  total(ms)")
	for i, f := range frames {
		im := imaging.Synthesize(640, 480, f.kind, rng)
		data, err := imaging.EncodeBytes(im, f.format)
		if err != nil {
			log.Fatal(err)
		}
		resp, err := client.Infer(ctx, "leafnet", serve.InferRequestJSON{
			ID:          fmt.Sprintf("frame-%d", i),
			Images:      [][]byte{data},
			ImageFormat: f.format.String(),
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-14s %-7s %5d  %14.3f  %11.3f  %9.3f\n",
			f.name, f.format, resp.Classification[0],
			resp.Timings.PreprocessMs, resp.Timings.ComputeMs, resp.Timings.TotalMs)
	}

	met, err := client.Metrics(ctx)
	if err != nil {
		log.Fatal(err)
	}
	for _, m := range met.Models {
		fmt.Printf("\n%s: %d requests, preprocess p50/max = %.3f/%.3f ms (n=%d)\n",
			m.Model, m.Requests, m.PreprocessMs.P50Ms, m.PreprocessMs.MaxMs,
			m.PreprocessMs.Count)
	}
}
