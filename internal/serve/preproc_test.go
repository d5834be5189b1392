package serve

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"harvest/internal/engine"
	"harvest/internal/hw"
	"harvest/internal/imaging"
	"harvest/internal/models"
	"harvest/internal/preprocess"
	"harvest/internal/stats"
	"harvest/internal/trace"
)

// preprocConfig builds a model with a real MicroViT backend and an
// encoded-image preprocessor, so the full pipeline — decode, resize,
// normalize, batch, real forward pass — runs end-to-end.
func preprocConfig(t *testing.T) (ModelConfig, *preprocess.CPUEngine) {
	t.Helper()
	eng, err := engine.New(hw.A100(), models.NameViTTiny)
	if err != nil {
		t.Fatal(err)
	}
	real, err := models.NewViTModel(models.MicroViTConfig(4), stats.NewRNG(21))
	if err != nil {
		t.Fatal(err)
	}
	eng.Real = real
	pre := &preprocess.CPUEngine{Platform: hw.A100(), Out: 32, Materialize: true, Workers: 2}
	t.Cleanup(pre.Close)
	return ModelConfig{
		Name: "imagenet", Engine: eng, MaxBatch: 8, InputSize: 32,
		QueueDelay: time.Millisecond, Preproc: pre,
	}, pre
}

// encodedTestImage returns one synthetic leaf image encoded in the
// given format.
func encodedTestImage(t *testing.T, f imaging.Format) []byte {
	t.Helper()
	im := imaging.Synthesize(57, 43, imaging.KindLeaf, stats.NewRNG(99))
	data, err := imaging.EncodeBytes(im, f)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestEncodedImageMatchesTensorPath is the acceptance test for the
// encoded-image path: submitting image bytes must yield exactly the
// logits the tensor path yields for the same preprocessed image, and
// the response must carry the preprocess stage timing.
func TestEncodedImageMatchesTensorPath(t *testing.T) {
	cfg, pre := preprocConfig(t)
	s := newTestServer(t, cfg)
	data := encodedTestImage(t, imaging.FormatJPEG)

	// Reference: preprocess locally with the same engine and submit the
	// tensor.
	res, err := pre.ProcessBatch([]preprocess.Item{{Encoded: data, Format: imaging.FormatJPEG}})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	tensorResp, err := s.Submit(ctx, &Request{ID: "tensor", Model: "imagenet", Inputs: res.Tensors})
	if err != nil {
		t.Fatal(err)
	}
	imageResp, err := s.Submit(ctx, &Request{
		ID: "image", Model: "imagenet",
		Images: [][]byte{data}, ImageFormat: imaging.FormatJPEG,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(tensorResp.Outputs) != 1 || len(imageResp.Outputs) != 1 {
		t.Fatalf("outputs: tensor %d, image %d", len(tensorResp.Outputs), len(imageResp.Outputs))
	}
	for i := range tensorResp.Outputs[0] {
		if tensorResp.Outputs[0][i] != imageResp.Outputs[0][i] {
			t.Fatalf("logits diverge at %d: tensor %v, image %v",
				i, tensorResp.Outputs[0][i], imageResp.Outputs[0][i])
		}
	}
	if imageResp.PreprocessSeconds <= 0 {
		t.Error("encoded request reported no preprocess time")
	}
	if tensorResp.PreprocessSeconds != 0 {
		t.Errorf("tensor request reported preprocess time %v", tensorResp.PreprocessSeconds)
	}
	m, err := s.MetricsFor("imagenet")
	if err != nil {
		t.Fatal(err)
	}
	if m.PreprocessMs.Count != 1 {
		t.Errorf("preprocess latency count %d, want 1", m.PreprocessMs.Count)
	}
}

// TestEncodedImageOverHTTP drives the encoded path through the full
// HTTP surface: images_b64 in, identical classification out, the
// preprocess stage visible in timings_ms, /v2/metrics, /metrics and
// /v2/trace.
func TestEncodedImageOverHTTP(t *testing.T) {
	cfg, pre := preprocConfig(t)
	rec := trace.NewRing(DefaultTraceCapacity)
	s := NewServer()
	t.Cleanup(s.Close)
	s.SetTrace(rec)
	if err := s.Register(cfg); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := NewClient(ts.URL)
	ctx := context.Background()

	data := encodedTestImage(t, imaging.FormatPPM)
	res, err := pre.ProcessBatch([]preprocess.Item{{Encoded: data, Format: imaging.FormatPPM}})
	if err != nil {
		t.Fatal(err)
	}
	tensorOut, err := client.Infer(ctx, "imagenet", InferRequestJSON{ID: "t1", Inputs: res.Tensors, Items: 1})
	if err != nil {
		t.Fatal(err)
	}
	imageOut, err := client.Infer(ctx, "imagenet", InferRequestJSON{
		ID: "i1", Images: [][]byte{data}, ImageFormat: "ppm",
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(imageOut.Classification) != 1 || imageOut.Classification[0] != tensorOut.Classification[0] {
		t.Errorf("classification %v via images, %v via tensors",
			imageOut.Classification, tensorOut.Classification)
	}
	if imageOut.Timings == nil || imageOut.Timings.PreprocessMs <= 0 {
		t.Errorf("timings_ms missing preprocess stage: %+v", imageOut.Timings)
	}
	if imageOut.Items != 1 || imageOut.Model != "imagenet" {
		t.Errorf("response identity %+v", imageOut)
	}

	mj, err := client.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(mj.Models) != 1 || mj.Models[0].PreprocessMs.Count != 1 {
		t.Errorf("/v2/metrics preprocess count: %+v", mj.Models)
	}
	if mj.Models[0].PreprocessMs.MaxMs <= 0 {
		t.Errorf("/v2/metrics preprocess max %v", mj.Models[0].PreprocessMs.MaxMs)
	}

	prom, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	promBody, _ := io.ReadAll(prom.Body)
	prom.Body.Close()
	if !strings.Contains(string(promBody), "harvest_preprocess_latency_seconds") {
		t.Error("/metrics exposition missing harvest_preprocess_latency_seconds")
	}

	found := false
	for _, sp := range rec.Spans() {
		if sp.Name == "preprocess" && sp.Track == "req:i1" {
			found = true
			if sp.Duration <= 0 {
				t.Error("preprocess span has no duration")
			}
		}
	}
	if !found {
		t.Error("/v2/trace recorder has no preprocess span for req i1")
	}
}

// TestEncodedImageValidation covers the failure modes of the encoded
// path at both API layers.
func TestEncodedImageValidation(t *testing.T) {
	cfg, _ := preprocConfig(t)
	cfg.MaxImageBytes = 1 << 16
	plain := tinyConfig(t) // no preprocessor
	s := newTestServer(t, cfg, plain)
	ctx := context.Background()
	data := encodedTestImage(t, imaging.FormatJPEG)

	if _, err := s.Submit(ctx, &Request{Model: models.NameViTTiny, Images: [][]byte{data}}); !errors.Is(err, ErrNoPreprocessor) {
		t.Errorf("no-preprocessor model: %v", err)
	}
	in := make([]float32, 3*32*32)
	if _, err := s.Submit(ctx, &Request{Model: "imagenet", Inputs: [][]float32{in}, Images: [][]byte{data}}); !errors.Is(err, ErrMixedInputs) {
		t.Errorf("mixed inputs: %v", err)
	}
	if _, err := s.Submit(ctx, &Request{Model: "imagenet", Items: 2, Images: [][]byte{data}}); !errors.Is(err, ErrItemsMismatch) {
		t.Errorf("items mismatch: %v", err)
	}
	if _, err := s.Submit(ctx, &Request{Model: "imagenet", Images: [][]byte{[]byte("not a jpeg")}}); !errors.Is(err, ErrPreprocess) {
		t.Errorf("corrupt image: %v", err)
	}
	big := make([]byte, 1<<16+1)
	if _, err := s.Submit(ctx, &Request{Model: "imagenet", Images: [][]byte{big}}); !errors.Is(err, ErrImageTooLarge) {
		t.Errorf("oversized image: %v", err)
	}
	// A failed preprocess must release its admission slot.
	m, err := s.MetricsFor("imagenet")
	if err != nil {
		t.Fatal(err)
	}
	if m.QueueDepth != 0 {
		t.Errorf("queue depth %d after failed preprocess, want 0", m.QueueDepth)
	}

	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for _, tc := range []struct {
		name string
		body InferRequestJSON
		want int
	}{
		{"no-preproc", InferRequestJSON{Images: [][]byte{data}}, http.StatusBadRequest},
		{"corrupt", InferRequestJSON{Images: [][]byte{[]byte("junk")}}, http.StatusBadRequest},
		{"bad-format", InferRequestJSON{Images: [][]byte{data}, ImageFormat: "tiff"}, http.StatusBadRequest},
	} {
		model := "imagenet"
		if tc.name == "no-preproc" {
			model = models.NameViTTiny
		}
		_, err := NewClient(ts.URL).Infer(context.Background(), model, tc.body)
		var se *StatusError
		if !errors.As(err, &se) || se.Code != tc.want {
			t.Errorf("%s: got %v, want HTTP %d", tc.name, err, tc.want)
		}
	}
}

// TestRegisterRejectsMismatchedPreproc pins the registration guard: a
// preprocessor whose output resolution disagrees with the real
// backend's input size would fail every request at inference time.
func TestRegisterRejectsMismatchedPreproc(t *testing.T) {
	cfg, _ := preprocConfig(t)
	cfg.Preproc = &preprocess.CPUEngine{Platform: hw.A100(), Out: 224, Materialize: true}
	s := NewServer()
	defer s.Close()
	if err := s.Register(cfg); err == nil {
		t.Error("mismatched preprocessor output accepted")
	}
}

// TestRouterBodyCapReturns413 pins the router's own body limit: an
// encoded-image batch above -max-body-bytes is rejected at the edge
// with 413, not garbled into a 400, and the cap is configurable
// upward for image traffic.
func TestRouterBodyCapReturns413(t *testing.T) {
	cfg, _ := preprocConfig(t)
	s := newTestServer(t, cfg)
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	router, err := NewRouter([]string{hs.URL}, RouterConfig{Pool: fastPool(), MaxBodyBytes: 2048})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	rs := httptest.NewServer(router.Handler())
	defer rs.Close()
	client := NewClient(rs.URL)
	ctx := context.Background()

	big := encodedTestImage(t, imaging.FormatPPM) // ~7.4 KB raw, > cap after base64
	_, err = client.Infer(ctx, "imagenet", InferRequestJSON{Images: [][]byte{big}})
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized routed body: %v, want 413", err)
	}
	small, err := imaging.EncodeBytes(imaging.Synthesize(8, 8, imaging.KindLeaf, stats.NewRNG(1)), imaging.FormatPPM)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Infer(ctx, "imagenet", InferRequestJSON{Images: [][]byte{small}, ImageFormat: "ppm"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Timings == nil || resp.Timings.PreprocessMs <= 0 {
		t.Errorf("routed encoded request lost preprocess timing: %+v", resp.Timings)
	}
}

// recyclingPreproc is a preprocessor that says when it is done and
// keeps what the server hands back to it.
type recyclingPreproc struct {
	preprocess.Engine
	done     chan struct{} // one token per finished ProcessBatch
	mu       sync.Mutex
	recycled [][]float32
}

func (p *recyclingPreproc) ProcessBatch(items []preprocess.Item) (preprocess.Result, error) {
	res, err := p.Engine.ProcessBatch(items)
	p.done <- struct{}{}
	return res, err
}

func (p *recyclingPreproc) Recycle(tensors [][]float32) {
	p.mu.Lock()
	p.recycled = append(p.recycled, tensors...)
	p.mu.Unlock()
}

func (p *recyclingPreproc) takeRecycled() [][]float32 {
	p.mu.Lock()
	defer p.mu.Unlock()
	r := p.recycled
	p.recycled = nil
	return r
}

// TestSubmitWorksOnItsOwnCopy pins what a queued frame holds on to. The
// caller's Request is left as it was given, and the queued copy no
// longer carries the encoded bytes, so a caller whose Submit returned on
// cancellation may reuse them. Under a real engine it carries the
// tensors until it is served; a modeled engine reads none, so they went
// back the moment they were made and the queue holds neither.
func TestSubmitWorksOnItsOwnCopy(t *testing.T) {
	for _, modeled := range []bool{false, true} {
		cfg, pre := preprocConfig(t)
		if modeled {
			cfg.Engine.Real = nil
		}
		rec := &recyclingPreproc{Engine: pre, done: make(chan struct{}, 1)}
		cfg.Preproc = rec
		cfg.QueueDelay = time.Hour // the request stays queued until the test takes it
		s := newTestServer(t, cfg)
		rt, err := s.runtime("imagenet")
		if err != nil {
			t.Fatal(err)
		}
		frame := encodedTestImage(t, imaging.FormatPPM)
		req := &Request{ID: "held", Model: "imagenet", Images: [][]byte{frame}, ImageFormat: imaging.FormatPPM}
		ctx, cancel := context.WithCancel(context.Background())
		result := make(chan error, 1)
		go func() {
			_, err := s.Submit(ctx, req)
			result <- err
		}()
		<-rec.done
		cancel()
		if err := <-result; !errors.Is(err, context.Canceled) {
			t.Fatalf("Submit returned %v, want context.Canceled", err)
		}
		if req.Items != 0 || req.Inputs != nil || req.Tenant != "" || len(req.Images) != 1 {
			t.Errorf("Submit wrote into the caller's request: %+v", req)
		}
		rt.qmu.Lock()
		batch, _ := rt.sched.next(time.Now(), true)
		rt.qmu.Unlock()
		if len(batch) != 1 {
			t.Fatalf("%d requests queued, want the cancelled one", len(batch))
		}
		p, wantTensors := batch[0], 1
		if modeled {
			wantTensors = 0
		}
		if p.req.Images != nil || len(p.req.Inputs) != wantTensors || p.req.Items != 1 || p.req.Tenant != DefaultTenant {
			t.Errorf("modeled=%v: queued request %+v: want %d tensors, no encoded bytes, normalized fields", modeled, p.req, wantTensors)
		}
		rt.dispatch(nil, batch) // evicts it, as the batcher would at the end of the window
		if got := rec.takeRecycled(); len(got) != 1-wantTensors {
			t.Errorf("modeled=%v: %d tensors recycled while their request was still queued, want %d", modeled, len(got), 1-wantTensors)
		}
	}
}

// TestServedTensorsAreRecycled: tensors that preprocessing made are
// handed back once their request has its outcome, and tensors the
// caller supplied never are.
func TestServedTensorsAreRecycled(t *testing.T) {
	cfg, pre := preprocConfig(t)
	rec := &recyclingPreproc{Engine: pre, done: make(chan struct{}, 8)}
	cfg.Preproc = rec
	s := newTestServer(t, cfg)
	ctx := context.Background()
	frame := encodedTestImage(t, imaging.FormatPPM)
	images := &Request{Model: "imagenet", Images: [][]byte{frame, frame}, ImageFormat: imaging.FormatPPM}
	fromImages, err := s.Submit(ctx, images)
	if err != nil {
		t.Fatal(err)
	}
	recycled := rec.takeRecycled()
	if len(recycled) != 2 || len(recycled[0]) != 3*32*32 {
		t.Fatalf("%d tensors recycled after a served 2-image request, want 2", len(recycled))
	}
	// The recycled tensors still hold what the engine computed on.
	own := [][]float32{append([]float32(nil), recycled[0]...), append([]float32(nil), recycled[1]...)}
	fromTensors, err := s.Submit(ctx, &Request{Model: "imagenet", Inputs: own})
	if err != nil {
		t.Fatal(err)
	}
	if got := rec.takeRecycled(); len(got) != 0 {
		t.Errorf("%d caller-supplied tensors were recycled", len(got))
	}
	for i := range fromImages.Outputs {
		for j, v := range fromImages.Outputs[i] {
			if v != fromTensors.Outputs[i][j] {
				t.Fatalf("logits of image %d diverge at %d", i, j)
			}
		}
	}
}
