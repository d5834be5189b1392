package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"image"
	"image/jpeg"
	"io"
	"math/rand/v2"
	"net/http"
	"runtime"
	"time"

	"harvest/internal/engine"
	"harvest/internal/hw"
	"harvest/internal/imaging"
	"harvest/internal/metrics"
	"harvest/internal/models"
	"harvest/internal/preprocess"
	"harvest/internal/serve"
	"harvest/internal/stream"
	"harvest/internal/tensor"
	"harvest/internal/trace"
	"harvest/internal/transfer"
)

// A layerCase times one public function of one module in isolation, on
// inputs synthesized from the seed the same way the workloads' inputs
// are. setup returns the op to time and a cleanup.
type layerCase struct {
	name  string
	setup caseSetup
}

type caseSetup func(in *layerInputs) (op func() error, cleanup func(), err error)

// layerResult is one case's outcome.
type layerResult struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	Ops         int     `json:"ops"`
}

// layerInputs are the seeded inputs the cases share.
type layerInputs struct {
	seed     uint64
	rng      *rand.Rand
	frame96  []byte
	frames96 [][]byte
	frame512 []byte
	jpeg512  []byte
	tensors  [][]float32 // one offline request: 2 × 3×32×32
	a100     *hw.Platform
	pool     *preprocess.Pool
}

func newLayerInputs(seed uint64) (*layerInputs, error) {
	in := &layerInputs{seed: seed, rng: newRand(seed, streamLayers)}
	in.frames96 = framePool(seed, 1, streamPoolSize, streamFrameSize, 8)
	in.frame96 = in.frames96[0]
	in.frame512 = framePool(seed, 0, 1, 512, 16)[0]
	im, err := imaging.DecodeBytes(in.frame512, imaging.FormatPPM)
	if err != nil {
		return nil, err
	}
	rgba := image.NewRGBA(image.Rect(0, 0, im.W, im.H))
	for i := 0; i < im.W*im.H; i++ {
		copy(rgba.Pix[i*4:], im.Pix[i*3:i*3+3])
		rgba.Pix[i*4+3] = 255
	}
	var buf bytes.Buffer
	if err := jpeg.Encode(&buf, rgba, &jpeg.Options{Quality: 90}); err != nil {
		return nil, err
	}
	in.jpeg512 = buf.Bytes()
	in.tensors = newTensorJob(seed, 1, offlinePerReq, offlineInputSize).bodies[0]
	if in.a100, err = hw.ByName("A100"); err != nil {
		return nil, err
	}
	in.pool = preprocess.NewPool(0)
	return in, nil
}

func (in *layerInputs) close() { in.pool.Close() }

func (in *layerInputs) floats(n int) []float32 {
	out := make([]float32, n)
	for i := range out {
		out[i] = in.rng.Float32()*2 - 1
	}
	return out
}

// ViT_Tiny shapes at the offline workload's batch of 2: 2×257 token
// rows, width 192, 3 heads of 64.
const (
	vitRows = 514
	vitDim  = 192
	vitSeq  = 257
	vitHead = 64
)

// runLayerCases times every case within roughly the given budget. A
// case gets an equal share; one op always runs, however long it takes.
func runLayerCases(seed uint64, budget time.Duration) ([]layerResult, error) {
	in, err := newLayerInputs(seed)
	if err != nil {
		return nil, err
	}
	defer in.close()
	cases := layerCases()
	share := budget / time.Duration(len(cases))
	out := make([]layerResult, 0, len(cases))
	for _, c := range cases {
		op, cleanup, err := c.setup(in)
		if err != nil {
			return nil, fmt.Errorf("layer case %s: %w", c.name, err)
		}
		res, err := timeCase(c.name, op, share)
		cleanup()
		if err != nil {
			return nil, fmt.Errorf("layer case %s: %w", c.name, err)
		}
		out = append(out, res)
	}
	return out, nil
}

// timeCase runs op in batches and reports the median batch's time per
// op, which a stray GC or a scheduler hiccup in one batch cannot move.
func timeCase(name string, op func() error, share time.Duration) (layerResult, error) {
	var stats runtime.MemStats
	mallocs := func() uint64 { runtime.ReadMemStats(&stats); return stats.Mallocs }
	// The first op warms the case up and sizes the batches.
	before, start := mallocs(), time.Now()
	if err := op(); err != nil {
		return layerResult{}, err
	}
	first := time.Since(start)
	if first > share/2 {
		// Too slow to repeat: the first op is the measurement.
		return layerResult{Name: name, NsPerOp: float64(first.Nanoseconds()), AllocsPerOp: float64(mallocs() - before), Ops: 1}, nil
	}
	const batches = 5
	n := int(share / batches / max(first, time.Microsecond))
	n = max(1, min(n, 1<<20))
	var per []float64
	before = mallocs()
	for b := 0; b < batches; b++ {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			if err := op(); err != nil {
				return layerResult{}, err
			}
		}
		per = append(per, float64(time.Since(t0).Nanoseconds())/float64(n))
	}
	ops := batches * n
	return layerResult{Name: name, NsPerOp: median(per), AllocsPerOp: float64(mallocs()-before) / float64(ops), Ops: ops}, nil
}

// nullWriter is the http.ResponseWriter of the in-process handler
// cases: it keeps the status and discards the body.
type nullWriter struct {
	h      http.Header
	status int
}

func (w *nullWriter) Header() http.Header         { return w.h }
func (w *nullWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *nullWriter) WriteHeader(code int)        { w.status = code }

// serveHTTP drives h with one request and requires a 200.
func serveHTTP(h http.Handler, method, path string, body []byte) error {
	r, err := http.NewRequest(method, path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	w := &nullWriter{h: http.Header{}, status: http.StatusOK}
	h.ServeHTTP(w, r)
	if w.status != http.StatusOK {
		return fmt.Errorf("%s %s: HTTP %d", method, path, w.status)
	}
	return nil
}

// isolatedServer registers one model with MaxBatch 1, so a batch is
// dispatched the moment a request arrives: the serve cases time the
// code a request crosses, not the batching window's timer.
func isolatedServer(in *layerInputs, model string, edit func(*layerInputs, *serve.ModelConfig)) (*serve.Server, error) {
	eng, err := engine.New(in.a100, model)
	if err != nil {
		return nil, err
	}
	mc := serve.ModelConfig{Name: model, Engine: eng, MaxBatch: 1}
	if edit != nil {
		edit(in, &mc)
	}
	srv := serve.NewServer()
	srv.SetTrace(trace.NewRing(serve.DefaultTraceCapacity))
	if err := srv.Register(mc); err != nil {
		srv.Close()
		return nil, err
	}
	return srv, nil
}

// zeroLogits is a real backend that computes nothing, so the tensor
// wire case pays for decoding inputs and encoding 1000 logits per image
// and for nothing else.
type zeroLogits struct{}

func (zeroLogits) Forward(x *tensor.Tensor) (*tensor.Tensor, error) {
	return tensor.New(x.Dim(0), offlineClasses), nil
}

// cannedReplica answers every infer with one fixed response, and the
// router's probes with "ready" and empty metrics.
func cannedReplica(model string) http.Handler {
	canned := mustJSON(serve.InferResponseJSON{Model: model, Items: 1, BatchSize: 1, Tenant: tenants[0]})
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			_, _ = io.Copy(io.Discard, r.Body)
			w.Header().Set("Content-Type", "application/json")
			_, _ = w.Write(canned)
			return
		}
		if r.URL.Path == "/v2/metrics" {
			_, _ = w.Write([]byte(`{"models":[]}`))
		}
	})
}

// idleBackend is an edge tier that answers at once.
type idleBackend struct{}

func (idleBackend) Submit(_ context.Context, req *serve.Request) (*serve.Response, error) {
	return &serve.Response{ID: req.ID, Model: req.Model, Items: req.Items}, nil
}
func (idleBackend) EstimateWait(string, int) (time.Duration, error) { return 0, nil }
func (idleBackend) QueueDepth(string) (int64, error)                { return 0, nil }

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // the wire types always marshal
	}
	return b
}

func noCleanup() {}

func layerCases() []layerCase {
	var cases []layerCase
	add := func(name string, setup caseSetup) {
		cases = append(cases, layerCase{name: name, setup: setup})
	}
	ctx := context.Background()

	// serve client: Client.Infer against a canned replica on loopback.
	clientCase := func(body func(in *layerInputs, i int) serve.InferRequestJSON) caseSetup {
		return func(in *layerInputs) (func() error, func(), error) {
			t := &tier{}
			url, err := t.listen(cannedReplica("ViT_Tiny"))
			if err != nil {
				return nil, nil, err
			}
			c := newClient(url)
			i := 0
			return func() error {
				i++
				_, err := c.Infer(ctx, "ViT_Tiny", body(in, i))
				return err
			}, t.Close, nil
		}
	}
	rpc := func(in *layerInputs, i int) serve.InferRequestJSON { return rpcBody(in.seed, 0, i) }
	frame := func(in *layerInputs, i int) serve.InferRequestJSON {
		return frameBody(in.seed, [][]byte{in.frame512}, 0, i)
	}
	add("serve.client.infer_rpc", clientCase(rpc))
	add("serve.client.infer_frame", clientCase(frame))

	// serve HTTP wire: Server.Handler().ServeHTTP in process.
	handlerCase := func(model, method, path string, edit func(*layerInputs, *serve.ModelConfig), body func(*layerInputs) []byte) caseSetup {
		return func(in *layerInputs) (func() error, func(), error) {
			srv, err := isolatedServer(in, model, edit)
			if err != nil {
				return nil, nil, err
			}
			h := srv.Handler()
			var payload []byte
			if body != nil {
				payload = body(in)
			}
			if method == http.MethodGet {
				// Metrics of a server that has served something.
				if err := serveHTTP(h, http.MethodPost, serve.FormatInferPath(model), mustJSON(rpcBody(in.seed, 0, 0))); err != nil {
					srv.Close()
					return nil, nil, err
				}
			}
			return func() error { return serveHTTP(h, method, path, payload) }, srv.Close, nil
		}
	}
	withPreproc := func(in *layerInputs, mc *serve.ModelConfig) {
		mc.Preproc = &preprocess.CPUEngine{Platform: in.a100, Out: 224, Materialize: true, Pool: in.pool}
		mc.InputSize = 224
	}
	withZeroLogits := func(_ *layerInputs, mc *serve.ModelConfig) {
		eng := *mc.Engine
		eng.Real = zeroLogits{}
		// One request fills the batch, as in the other serve cases.
		mc.Engine, mc.InputSize, mc.MaxBatch = &eng, offlineInputSize, offlinePerReq
	}
	add("serve.http.infer_rpc", handlerCase("ViT_Tiny", http.MethodPost, serve.FormatInferPath("ViT_Tiny"), nil,
		func(in *layerInputs) []byte { return mustJSON(rpc(in, 1)) }))
	add("serve.http.infer_frame", handlerCase("ViT_Base", http.MethodPost, serve.FormatInferPath("ViT_Base"), withPreproc,
		func(in *layerInputs) []byte { return mustJSON(frame(in, 1)) }))
	add("serve.http.infer_tensor", handlerCase("ViT_Tiny", http.MethodPost, serve.FormatInferPath("ViT_Tiny"), withZeroLogits,
		func(in *layerInputs) []byte {
			return mustJSON(serve.InferRequestJSON{Items: len(in.tensors), Inputs: in.tensors, Class: "offline"})
		}))
	add("serve.http.metrics_json", handlerCase("ViT_Tiny", http.MethodGet, "/v2/metrics", nil, nil))
	add("serve.http.metrics_prom", handlerCase("ViT_Tiny", http.MethodGet, "/metrics", nil, nil))

	// serve admission + scheduler + executor: Server.Submit in process.
	submitCase := func(quotas map[string]serve.TenantQuota, tenantOf func(i int) string, wantShed bool) caseSetup {
		return func(in *layerInputs) (func() error, func(), error) {
			srv, err := isolatedServer(in, "ViT_Tiny", func(_ *layerInputs, mc *serve.ModelConfig) { mc.TenantQuotas = quotas })
			if err != nil {
				return nil, nil, err
			}
			i := 0
			return func() error {
				i++
				_, err := srv.Submit(ctx, &serve.Request{Model: "ViT_Tiny", Items: 1, Tenant: tenantOf(i)})
				if wantShed {
					if i > 1 && !errors.Is(err, serve.ErrOverloaded) {
						return fmt.Errorf("submit %d: want a quota rejection, got %v", i, err)
					}
					return nil
				}
				return err
			}, srv.Close, nil
		}
	}
	eight := map[string]serve.TenantQuota{}
	for i := 0; i < 8; i++ {
		// Quotas set but never exhausted: the token-bucket and DRR paths
		// run on every request without a 429.
		eight[fmt.Sprintf("t%d", i)] = serve.TenantQuota{RatePerSec: 1e9, Burst: 1e9, MaxQueueShare: 0.5}
	}
	add("serve.submit_items", submitCase(nil, func(int) string { return tenants[0] }, false))
	add("serve.submit_tenants", submitCase(eight, func(i int) string { return fmt.Sprintf("t%d", i%8) }, false))
	add("serve.submit_shed", submitCase(map[string]serve.TenantQuota{"hog": {RatePerSec: 1e-3, Burst: 1}},
		func(int) string { return "hog" }, true))
	add("serve.estimate_wait", func(in *layerInputs) (func() error, func(), error) {
		srv, err := isolatedServer(in, "ViT_Tiny", nil)
		if err != nil {
			return nil, nil, err
		}
		return func() error { _, err := srv.EstimateWait("ViT_Tiny", 1); return err }, srv.Close, nil
	})

	// serve router + pool: Router.Handler().ServeHTTP over canned replicas.
	routerCase := func(body func(in *layerInputs, i int) serve.InferRequestJSON) caseSetup {
		return func(in *layerInputs) (func() error, func(), error) {
			t := &tier{}
			var urls []string
			for i := 0; i < 2; i++ {
				url, err := t.listen(cannedReplica("ViT_Tiny"))
				if err != nil {
					t.Close()
					return nil, nil, err
				}
				urls = append(urls, url)
			}
			router, err := serve.NewRouter(urls, serve.RouterConfig{})
			if err != nil {
				t.Close()
				return nil, nil, err
			}
			t.stops = append(t.stops, router.Close)
			h := router.Handler()
			payload := mustJSON(body(in, 1))
			return func() error {
				return serveHTTP(h, http.MethodPost, serve.FormatInferPath("ViT_Tiny"), payload)
			}, t.Close, nil
		}
	}
	add("serve.router.infer_rpc", routerCase(rpc))
	add("serve.router.infer_frame", routerCase(frame))

	// stream: Session.HandleFrame over an idle backend, the offload
	// decision, and the NDJSON session wire.
	frameCase := func(cached bool) caseSetup {
		return func(in *layerInputs) (func() error, func(), error) {
			cfg := stream.Config{Model: streamModel, Local: idleBackend{}, Budget: streamServerBudget}
			if cached {
				cfg.DedupTTL = time.Hour
			}
			ing, err := stream.NewIngest(cfg)
			if err != nil {
				return nil, nil, err
			}
			sess, err := ing.Open("cam-0", "", "", 0)
			if err != nil {
				return nil, nil, err
			}
			done := make(chan stream.Outcome, 1)
			seq := int64(0)
			return func() error {
				seq++
				img := in.frame96
				if !cached {
					img = in.frames96[int(seq)%len(in.frames96)]
				}
				sess.HandleFrame(ctx, stream.Frame{Seq: seq, Image: img, Format: "ppm"}, func(o stream.Outcome) { done <- o })
				o := <-done
				want := stream.OutcomeServed
				if cached && seq > 1 {
					want = stream.OutcomeCached
				}
				if o.Outcome != want {
					return fmt.Errorf("frame %d: outcome %q, want %q", seq, o.Outcome, want)
				}
				return nil
			}, sess.Close, nil
		}
	}
	add("stream.handle_frame_served", frameCase(false))
	add("stream.handle_frame_cached", frameCase(true))
	add("stream.offload_decide", func(in *layerInputs) (func() error, func(), error) {
		link, err := transfer.ByName("lte")
		if err != nil {
			return nil, nil, err
		}
		pol := &stream.OffloadPolicy{Cloud: serve.NewClient("http://127.0.0.1:0"), Link: link,
			ChunkBytes: streamChunkBytes, QueueThreshold: streamQueueThreshold}
		return func() error {
			pol.Decide(idleBackend{}, streamModel, len(in.frame96), time.Millisecond, streamServerBudget)
			return nil
		}, noCleanup, nil
	})
	add("stream.session_wire", func(in *layerInputs) (func() error, func(), error) {
		ing, err := stream.NewIngest(stream.Config{Model: streamModel, Local: idleBackend{}, Budget: streamServerBudget})
		if err != nil {
			return nil, nil, err
		}
		t := &tier{}
		url, err := t.listen(ing.Handler())
		if err != nil {
			return nil, nil, err
		}
		hc := &http.Client{Transport: serve.NewTransport()}
		sess, err := stream.DialSession(ctx, hc, url, "cam-0", "", "", 0)
		if err != nil {
			t.Close()
			return nil, nil, err
		}
		seq := int64(0)
		cleanup := func() {
			_ = sess.CloseSend() // closing a pipe writer cannot fail
			_, _ = sess.Wait()
			hc.CloseIdleConnections()
			t.Close()
		}
		return func() error {
			seq++
			if err := sess.Send(stream.Frame{Seq: seq, Image: in.frames96[int(seq)%len(in.frames96)], Format: "ppm"}); err != nil {
				return err
			}
			if o, ok := <-sess.Outcomes(); !ok || o.Outcome != stream.OutcomeServed {
				return fmt.Errorf("frame %d: outcome %+v", seq, o)
			}
			return nil
		}, cleanup, nil
	})

	// imaging + preprocess.
	decodeCase := func(data func(*layerInputs) []byte, f imaging.Format) caseSetup {
		return func(in *layerInputs) (func() error, func(), error) {
			d := data(in)
			return func() error { _, err := imaging.DecodeBytes(d, f); return err }, noCleanup, nil
		}
	}
	add("imaging.decode_ppm_96", decodeCase(func(in *layerInputs) []byte { return in.frame96 }, imaging.FormatPPM))
	add("imaging.decode_ppm_512", decodeCase(func(in *layerInputs) []byte { return in.frame512 }, imaging.FormatPPM))
	add("imaging.decode_jpeg_512", decodeCase(func(in *layerInputs) []byte { return in.jpeg512 }, imaging.FormatJPEG))
	add("imaging.fused_512_to_224", func(in *layerInputs) (func() error, func(), error) {
		im, err := imaging.DecodeBytes(in.frame512, imaging.FormatPPM)
		if err != nil {
			return nil, nil, err
		}
		var k imaging.FusedKernel
		dst := make([]float32, 3*224*224)
		return func() error {
			_, _, err := k.ResizeCropNormalizeInto(dst, im, 224, imaging.ImageNetMean, imaging.ImageNetStd)
			return err
		}, noCleanup, nil
	})
	add("imaging.dhash_96", func(in *layerInputs) (func() error, func(), error) {
		im, err := imaging.DecodeBytes(in.frame96, imaging.FormatPPM)
		if err != nil {
			return nil, nil, err
		}
		return func() error { imaging.DHash(im); return nil }, noCleanup, nil
	})
	preprocCase := func(n int, data func(*layerInputs) []byte) caseSetup {
		return func(in *layerInputs) (func() error, func(), error) {
			e := &preprocess.CPUEngine{Platform: in.a100, Out: 224, Materialize: true, Pool: in.pool}
			items := make([]preprocess.Item, n)
			for i := range items {
				items[i] = preprocess.Item{Encoded: data(in), Format: imaging.FormatPPM}
			}
			return func() error { _, err := e.ProcessBatch(items); return err }, noCleanup, nil
		}
	}
	add("preprocess.batch_512x1", preprocCase(1, func(in *layerInputs) []byte { return in.frame512 }))
	add("preprocess.batch_96x8", preprocCase(8, func(in *layerInputs) []byte { return in.frame96 }))

	// engine + hw.
	add("engine.infer_modeled", func(in *layerInputs) (func() error, func(), error) {
		eng, err := engine.New(in.a100, "ViT_Tiny")
		if err != nil {
			return nil, nil, err
		}
		return func() error { _, err := eng.Infer(8); return err }, noCleanup, nil
	})
	add("engine.infer_tensors_vit_tiny_b2", func(in *layerInputs) (func() error, func(), error) {
		eng, err := engine.New(in.a100, offlineModel)
		if err == nil {
			err = eng.AttachReal("fp32", offlineRealSeed)
		}
		if err != nil {
			return nil, nil, err
		}
		return func() error { _, _, err := eng.InferTensors(in.tensors, offlineInputSize); return err }, noCleanup, nil
	})

	// models: one forward pass per executable backend.
	forwardCase := func(model, precision string, batch, size int) caseSetup {
		return func(in *layerInputs) (func() error, func(), error) {
			m, err := models.NewExecutable(model, offlineClasses, precision, newRand(offlineRealSeed, streamLayers))
			if err != nil {
				return nil, nil, err
			}
			x := tensor.FromSlice(in.floats(batch*3*size*size), batch, 3, size, size)
			return func() error { _, err := m.Forward(x); return err }, noCleanup, nil
		}
	}
	add("models.forward_vit_tiny_fp32_b2", forwardCase("ViT_Tiny", "fp32", 2, 32))
	add("models.forward_vit_tiny_int8_b2", forwardCase("ViT_Tiny", "int8", 2, 32))
	add("models.forward_resnet_mini_fp32_b8", forwardCase("ResNet_Mini", "fp32", 8, 64))
	add("models.forward_resnet_mini_int8_b8", forwardCase("ResNet_Mini", "int8", 8, 64))
	add("models.forward_vit_micro_fp32_b8", forwardCase("ViT_Micro", "fp32", 8, 32))

	// tensor + quant kernels at ViT_Tiny shapes.
	gemmCase := func(n int, f16 bool) caseSetup {
		return func(in *layerInputs) (func() error, func(), error) {
			a, c := in.floats(vitRows*vitDim), make([]float32, vitRows*n)
			if f16 {
				// Half-precision bit patterns with a mid-range exponent:
				// finite, normal, of either sign.
				b := make([]uint16, n*vitDim)
				for i := range b {
					b[i] = uint16(in.rng.Uint32())&0x83ff | uint16(10+in.rng.IntN(5))<<10
				}
				return func() error { tensor.GemmTransBF16Into(c, a, b, vitRows, n, vitDim, false); return nil }, noCleanup, nil
			}
			b := in.floats(n * vitDim)
			return func() error { tensor.GemmTransBInto(c, a, b, vitRows, n, vitDim); return nil }, noCleanup, nil
		}
	}
	add("tensor.gemm_fp32_qkv", gemmCase(3*vitDim, false))
	add("tensor.gemm_fp32_mlp", gemmCase(4*vitDim, false))
	add("tensor.gemm_f16_qkv", gemmCase(3*vitDim, true))
	q7Acts := func(in *layerInputs) []uint8 {
		codes := make([]uint8, vitRows*vitDim)
		for i := range codes {
			codes[i] = uint8(in.rng.IntN(128))
		}
		return codes
	}
	add("tensor.q7_pack_acts", func(in *layerInputs) (func() error, func(), error) {
		codes, p := q7Acts(in), &tensor.PackedQ7{}
		return func() error { tensor.PackQ7ActsInto(p, codes, vitRows, vitDim); return nil }, noCleanup, nil
	})
	add("tensor.q7_gemm_qkv", func(in *layerInputs) (func() error, func(), error) {
		acts := tensor.PackQ7Acts(q7Acts(in), vitRows, vitDim)
		w := make([]int8, 3*vitDim*vitDim)
		for i := range w {
			w[i] = int8(in.rng.IntN(127) - 63)
		}
		weights := tensor.PackQ7Weights(w, 3*vitDim, vitDim)
		c := make([]int32, vitRows*3*vitDim)
		return func() error { tensor.Q7GemmTransB(c, acts, weights); return nil }, noCleanup, nil
	})
	add("tensor.attention_257x64", func(in *layerInputs) (func() error, func(), error) {
		q := tensor.FromSlice(in.floats(vitSeq*vitHead), vitSeq, vitHead)
		k := tensor.FromSlice(in.floats(vitSeq*vitHead), vitSeq, vitHead)
		v := tensor.FromSlice(in.floats(vitSeq*vitHead), vitSeq, vitHead)
		return func() error { tensor.Attention(q, k, v); return nil }, noCleanup, nil
	})
	add("tensor.softmax_rows", func(in *layerInputs) (func() error, func(), error) {
		t := tensor.FromSlice(in.floats(vitSeq*vitSeq), vitSeq, vitSeq)
		return func() error { tensor.SoftmaxRows(t); return nil }, noCleanup, nil
	})
	add("tensor.layernorm", func(in *layerInputs) (func() error, func(), error) {
		t := tensor.FromSlice(in.floats(vitRows*vitDim), vitRows, vitDim)
		g, b := tensor.FromSlice(in.floats(vitDim), vitDim), tensor.FromSlice(in.floats(vitDim), vitDim)
		return func() error { tensor.LayerNorm(t, g, b, 1e-6); return nil }, noCleanup, nil
	})
	add("tensor.gelu", func(in *layerInputs) (func() error, func(), error) {
		src := in.floats(vitRows * 4 * vitDim)
		t := tensor.New(vitRows, 4*vitDim)
		return func() error { copy(t.Data, src); tensor.GELU(t); return nil }, noCleanup, nil
	})

	// transfer: the uplink model's pure pricing function.
	add("transfer.transmit_chunked", func(in *layerInputs) (func() error, func(), error) {
		link, err := transfer.ByName("lte")
		if err != nil {
			return nil, nil, err
		}
		return func() error { link.TransmitSecondsChunked(len(in.frame96), streamChunkBytes); return nil }, noCleanup, nil
	})

	// metrics + trace: the instrumentation's own cost.
	add("metrics.histogram_observe", func(in *layerInputs) (func() error, func(), error) {
		var l metrics.LatencyRecorder
		x := 0.0
		return func() error { x += 1e-5; l.Observe(x); return nil }, noCleanup, nil
	})
	add("metrics.counter_inc", func(in *layerInputs) (func() error, func(), error) {
		var c metrics.Counter
		return func() error { c.Inc(); return nil }, noCleanup, nil
	})
	ringSpan := trace.Span{Name: "compute", Track: "req:0123456789abcdef", Start: 1, Duration: 1e-3,
		Args: map[string]any{"model": "ViT_Tiny", "tenant": tenants[0]}}
	add("trace.ring_add", func(in *layerInputs) (func() error, func(), error) {
		r := trace.NewRing(serve.DefaultTraceCapacity)
		return func() error { r.Add(ringSpan); return nil }, noCleanup, nil
	})
	add("trace.write_chrome_4096", func(in *layerInputs) (func() error, func(), error) {
		r := trace.NewRing(4096)
		for i := 0; i < 4096; i++ {
			s := ringSpan
			s.Start = float64(i)
			r.Add(s)
		}
		return func() error { return r.WriteChrome(io.Discard) }, noCleanup, nil
	})

	return cases
}
