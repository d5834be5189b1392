// Online inference scenario (paper §2.2.1): a HARVEST inference server
// with dynamic batching serves Poisson request traffic over HTTP. The
// example starts the server in-process on a loopback port, drives it
// with open-loop clients at increasing rates, and reports how dynamic
// batching trades latency for throughput.
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net/http/httptest"
	"sync"
	"time"

	"harvest/internal/engine"
	"harvest/internal/hw"
	"harvest/internal/metrics"
	"harvest/internal/models"
	"harvest/internal/serve"
	"harvest/internal/stats"
	"harvest/internal/workload"
)

func main() {
	log.SetFlags(0)

	platform := hw.A100()
	srv := serve.NewServer()
	defer srv.Close()
	eng, err := engine.New(platform, models.NameViTSmall)
	if err != nil {
		log.Fatal(err)
	}
	if err := srv.Register(serve.ModelConfig{
		Name:       models.NameViTSmall,
		Engine:     eng,
		MaxBatch:   64,
		QueueDelay: 2 * time.Millisecond,
		Instances:  1,
		// Sleep 1:1 with the modeled engine latency so clients see
		// platform-like pacing.
		TimeScale: 1.0,
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
	names, err := client.Models(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("server ready at %s, models: %v\n\n", ts.URL, names)
	fmt.Println("rate(req/s)  sent  p50(ms)  p95(ms)  items/batch  img/s")

	rng := stats.NewRNG(99)
	// The server's counters are cumulative; each rate reports its delta.
	var mj *serve.MetricsJSON
	var prev serve.ModelMetricsJSON
	for _, rate := range []float64{50, 200, 600} {
		trace := workload.PoissonTrace(rng, rate, 2.0, 4)
		rec := &metrics.LatencyRecorder{}
		var wg sync.WaitGroup
		start := time.Now()
		for i, a := range trace {
			// Open loop: fire at the trace's arrival time.
			delay := time.Duration(a.Time*float64(time.Second)) - time.Since(start)
			if delay > 0 {
				time.Sleep(delay)
			}
			wg.Add(1)
			go func(i, items int) {
				defer wg.Done()
				t0 := time.Now()
				_, err := client.Infer(ctx, models.NameViTSmall,
					serve.InferRequestJSON{ID: fmt.Sprintf("r%d", i), Items: items})
				if err != nil {
					log.Printf("request %d failed: %v", i, err)
					return
				}
				rec.Observe(time.Since(t0).Seconds())
			}(i, a.Items)
		}
		wg.Wait()
		elapsed := time.Since(start).Seconds()
		if mj, err = client.Metrics(ctx); err != nil {
			log.Fatal(err)
		}
		m := mj.Models[0]
		lat := serve.LatencySummary(rec.Snapshot())
		fmt.Printf("%11.0f  %4d  %7.2f  %7.2f  %11.2f  %6.1f\n",
			rate, len(trace), lat.P50Ms, lat.P95Ms,
			float64(m.Items-prev.Items)/float64(max(m.Batches-prev.Batches, 1)),
			float64(workload.TotalItems(trace))/elapsed)
		prev = m
	}

	// Server-side latency decomposition from GET /v2/metrics: the split
	// of request latency into batcher queueing vs. batch execution that
	// the paper's online scenario (Fig. 6) is characterized by.
	fmt.Println("\nserver-side decomposition (GET /v2/metrics, all rates pooled):")
	for _, m := range mj.Models {
		fmt.Printf("%s: requests=%d items=%d batches=%d errors=%d\n",
			m.Model, m.Requests, m.Items, m.Batches, m.Errors)
		fmt.Printf("  queue ms:   p50=%7.2f  p95=%7.2f  p99=%7.2f\n",
			m.QueueMs.P50Ms, m.QueueMs.P95Ms, m.QueueMs.P99Ms)
		fmt.Printf("  compute ms: p50=%7.2f  p95=%7.2f  p99=%7.2f\n",
			m.ComputeMs.P50Ms, m.ComputeMs.P95Ms, m.ComputeMs.P99Ms)
	}
	// Every infer response also carries its own per-stage breakdown
	// (timings_ms), so a single request can be diagnosed without
	// scraping aggregates; the same stages appear as spans in
	// GET /v2/trace and as histograms in the Prometheus GET /metrics.
	resp, err := client.Infer(ctx, models.NameViTSmall,
		serve.InferRequestJSON{ID: "traced-1", Items: 4})
	if err != nil {
		log.Fatal(err)
	}
	if tm := resp.Timings; tm != nil {
		fmt.Printf("\none request's own timings_ms (id %s): admit=%.3f queue=%.3f "+
			"batch-assembly=%.3f compute=%.3f\n",
			resp.ID, tm.AdmitMs, tm.QueueMs, tm.BatchAssemblyMs, tm.ComputeMs)
	}

	fmt.Println("\nas offered load rises, the dynamic batcher fuses more requests per batch:")
	fmt.Println("throughput climbs toward the engine's saturated rate while per-request")
	fmt.Println("latency grows by at most the batching window plus the larger batch time —")
	fmt.Println("the online-inference trade-off of paper §2.2.1.")

	overloadDemo(srv, ts.URL)
}

// overloadDemo pushes an edge-class deployment far past its capacity to
// show admission control at work: a bounded queue sheds excess traffic
// with HTTP 429 + Retry-After, unmeetable deadlines are evicted with
// 504 instead of wasting batch slots, and the realtime lane is served
// ahead of offline work.
func overloadDemo(srv *serve.Server, baseURL string) {
	edgeEng, err := engine.New(hw.Jetson(), models.NameViTBase)
	if err != nil {
		log.Fatal(err)
	}
	if err := srv.Register(serve.ModelConfig{
		Name:          "Edge_ViT_Base",
		Engine:        edgeEng,
		MaxBatch:      8,
		QueueDelay:    2 * time.Millisecond,
		TimeScale:     1.0,
		MaxQueueDepth: 16, // far below the burst size: shedding is expected
	}); err != nil {
		log.Fatal(err)
	}

	// Retries off: we want to see the 429s, not mask them.
	burst := serve.NewClient(baseURL)
	burst.MaxRetries = -1
	ctx := context.Background()

	const n = 200
	const deadline = 60 * time.Millisecond
	var served, shed, expired int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	fmt.Printf("\n=== overload: %d-request burst at a Jetson-class model (queue bound 16) ===\n", n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := serve.InferRequestJSON{ID: fmt.Sprintf("b%d", i), Items: 1, Class: "offline"}
			if i%2 == 0 {
				req.Class = "realtime"
				req.DeadlineMs = float64(deadline) / float64(time.Millisecond)
			}
			_, err := burst.Infer(ctx, "Edge_ViT_Base", req)
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err == nil:
				served++
			case errors.Is(err, serve.ErrOverloaded):
				shed++
			case errors.Is(err, serve.ErrDeadlineExpired):
				expired++
			default:
				log.Printf("burst request %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	fmt.Printf("client outcomes: served=%d shed(429)=%d deadline-expired(504)=%d\n",
		served, shed, expired)

	m, err := srv.MetricsFor("Edge_ViT_Base")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("server counters: requests=%d shed=%d expired=%d\n", m.Requests, m.Shed, m.Expired)
	for _, class := range []string{"realtime", "online", "offline"} {
		if q, ok := m.QueueMsByClass[class]; ok {
			fmt.Printf("  queue ms [%-8s]: p50=%7.2f  p99=%7.2f  (n=%d)\n",
				class, q.P50Ms, q.P99Ms, q.Count)
		}
	}
	fmt.Println("\nthe bounded queue fails excess load fast instead of letting latency grow")
	fmt.Println("without bound; every admitted realtime request was dispatched within its")
	fmt.Printf("deadline (served realtime queue p99 stays under %v), because requests whose\n", deadline)
	fmt.Println("slack cannot cover the modeled batch latency are evicted before dispatch.")
}
