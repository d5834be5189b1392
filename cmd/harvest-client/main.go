// Command harvest-client submits inference requests to a harvest-serve
// instance and reports latency statistics.
//
// Usage:
//
//	harvest-client [flags]
//
// harvest-client -h lists every flag with its default.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"sync"
	"time"

	"harvest/internal/metrics"
	"harvest/internal/serve"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("harvest-client: ")
	var (
		url         = flag.String("url", "http://127.0.0.1:8000", "server base URL")
		model       = flag.String("model", "ViT_Tiny", "model to query")
		requests    = flag.Int("requests", 100, "number of requests")
		items       = flag.Int("items", 4, "images per request")
		concurrency = flag.Int("concurrency", 8, "in-flight requests")
		class       = flag.String("class", "", "scenario class: realtime, online (default) or offline")
		deadline    = flag.Duration("deadline", 0, "per-request deadline (0 = class default)")
	)
	flag.Parse()
	if _, err := serve.ParseClass(*class); err != nil {
		log.Fatal(err)
	}

	client := serve.NewClient(*url)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	if err := client.WaitReady(ctx); err != nil {
		cancel()
		log.Fatal(err)
	}
	cancel()

	rec := &metrics.LatencyRecorder{}
	// Server-reported per-stage breakdown (timings_ms in each infer
	// response): where inside the server each request's time went.
	var admitRec, queueRec, assembleRec, computeRec metrics.LatencyRecorder
	sem := make(chan struct{}, *concurrency)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var failed, shed, expired int
	start := time.Now()
	for i := 0; i < *requests; i++ {
		sem <- struct{}{}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			req := serve.InferRequestJSON{ID: fmt.Sprintf("req-%d", i), Items: *items, Class: *class}
			if *deadline > 0 {
				req.DeadlineMs = float64(*deadline) / float64(time.Millisecond)
			}
			t0 := time.Now()
			resp, err := client.Infer(context.Background(), *model, req)
			if err != nil {
				mu.Lock()
				switch {
				case errors.Is(err, serve.ErrOverloaded):
					shed++
				case errors.Is(err, serve.ErrDeadlineExpired):
					expired++
				default:
					failed++
				}
				mu.Unlock()
				return
			}
			rec.Observe(time.Since(t0).Seconds())
			if tm := resp.Timings; tm != nil {
				admitRec.Observe(tm.AdmitMs / 1000)
				queueRec.Observe(tm.QueueMs / 1000)
				assembleRec.Observe(tm.BatchAssemblyMs / 1000)
				computeRec.Observe(tm.ComputeMs / 1000)
			}
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()

	s := serve.LatencySummary(rec.Snapshot())
	fmt.Printf("model=%s requests=%d failed=%d shed=%d expired=%d\n", *model, *requests, failed, shed, expired)
	fmt.Printf("wall=%.2fs request-throughput=%.1f req/s image-throughput=%.1f img/s\n",
		elapsed, float64(rec.Count())/elapsed, float64(rec.Count()**items)/elapsed)
	fmt.Printf("latency ms: mean=%.2f p50=%.2f p95=%.2f p99=%.2f max=%.2f\n",
		s.MeanMs, s.P50Ms, s.P95Ms, s.P99Ms, s.MaxMs)
	if admitRec.Count() > 0 {
		fmt.Println("per-stage ms (server-reported timings_ms):")
		for _, st := range []struct {
			name string
			rec  *metrics.LatencyRecorder
		}{
			{"admit", &admitRec}, {"queue", &queueRec},
			{"batch-assembly", &assembleRec}, {"compute", &computeRec},
		} {
			l := serve.LatencySummary(st.rec.Snapshot())
			fmt.Printf("  %-14s mean=%.3f p50=%.3f p95=%.3f p99=%.3f\n",
				st.name, l.MeanMs, l.P50Ms, l.P95Ms, l.P99Ms)
		}
	}

	// Server-side decomposition: how much of that latency was queueing
	// in the dynamic batcher vs. batch execution (paper Fig. 6).
	mctx, mcancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer mcancel()
	mj, err := client.Metrics(mctx)
	if err != nil {
		log.Printf("server metrics unavailable: %v", err)
		return
	}
	for _, m := range mj.Models {
		if m.Model != *model {
			continue
		}
		fmt.Printf("server: requests=%d items=%d batches=%d errors=%d cancelled=%d shed=%d expired=%d\n",
			m.Requests, m.Items, m.Batches, m.Errors, m.Cancelled, m.Shed, m.Expired)
		fmt.Printf("server queue ms:   p50=%.2f p95=%.2f p99=%.2f\n",
			m.QueueMs.P50Ms, m.QueueMs.P95Ms, m.QueueMs.P99Ms)
		fmt.Printf("server compute ms: p50=%.2f p95=%.2f p99=%.2f\n",
			m.ComputeMs.P50Ms, m.ComputeMs.P95Ms, m.ComputeMs.P99Ms)
		for cls, q := range m.QueueMsByClass {
			fmt.Printf("server queue ms [%s]: p50=%.2f p95=%.2f p99=%.2f\n",
				cls, q.P50Ms, q.P95Ms, q.P99Ms)
		}
	}
}
