package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"harvest/internal/hw"
	"harvest/internal/models"
	"harvest/internal/stats"
	"harvest/internal/tensor"
)

// gemmBenchReport is the schema of BENCH_PR8.json: really-measured
// compute-backend throughput on this host, by precision, at both the
// kernel level (GFLOPS) and the model level (images/sec).
type gemmBenchReport struct {
	Host struct {
		GOOS       string `json:"goos"`
		GOARCH     string `json:"goarch"`
		GOMAXPROCS int    `json:"gomaxprocs"`
		NumCPU     int    `json:"num_cpu"`
		// tensor.Kernels: "avx2+avx512vnni" (the float and int8 GEMMs
		// on their 6×32 AVX-512 pair tiles, the per-row passes on their
		// 16-lane bodies), "avx2+avx512vnni+amx" (the same, with the
		// int8 GEMM on the AMX tiles), "avx2" or "go".
		Kernels string `json:"kernels"`
	} `json:"host"`
	GemmN int `json:"gemm_n"`
	Gemm  []struct {
		Precision      string  `json:"precision"`
		GFLOPS         float64 `json:"gflops"`
		SpeedupNaive   float64 `json:"speedup_vs_naive"`
		EffVsPractical float64 `json:"efficiency_vs_practical"`
	} `json:"gemm"`
	// PracticalGFLOPS is the host roofline proxy: the best measured
	// packed fp32 rate. Efficiencies are relative to it; int8 exceeding
	// 1.0 means the int8 kernel beats the fp32 roofline, as intended.
	PracticalGFLOPS float64 `json:"practical_gflops"`
	Models          []struct {
		Model        string  `json:"model"`
		Precision    string  `json:"precision"`
		Batch        int     `json:"batch"`
		ImagesPerSec float64 `json:"images_per_sec"`
		SpeedupFP32  float64 `json:"speedup_vs_fp32"`
	} `json:"models"`
}

// modelImagesPerSec times real forward passes of one executable model
// at one precision and returns throughput in images/sec.
func modelImagesPerSec(name string, numClasses, inputSize, batch int, precision string) (float64, error) {
	m, err := models.NewExecutable(name, numClasses, precision, stats.NewRNG(1))
	if err != nil {
		return 0, err
	}
	x := tensor.New(batch, 3, inputSize, inputSize)
	x.RandInit(stats.NewRNG(7), 1)
	if _, err := m.Forward(x); err != nil { // warm pools and caches
		return 0, err
	}
	const minSec = 0.5
	iters := 0
	start := time.Now()
	for {
		if _, err := m.Forward(x); err != nil {
			return 0, err
		}
		iters++
		if time.Since(start).Seconds() >= minSec {
			break
		}
	}
	return float64(batch*iters) / time.Since(start).Seconds(), nil
}

// runGemmBench measures the compute backend end to end and writes the
// JSON report to path.
func runGemmBench(path string) error {
	const n = 1024
	var rep gemmBenchReport
	rep.Host.GOOS = runtime.GOOS
	rep.Host.GOARCH = runtime.GOARCH
	rep.Host.GOMAXPROCS = runtime.GOMAXPROCS(0)
	rep.Host.NumCPU = runtime.NumCPU()
	rep.Host.Kernels = tensor.Kernels
	rep.GemmN = n

	fmt.Fprintf(os.Stderr, "gemmbench: measuring %dx%dx%d GEMM across precisions...\n", n, n, n)
	suite := hw.HostGemmSuite(n)
	var naive, practical float64
	for _, r := range suite {
		switch r.Precision {
		case "fp32-naive":
			naive = r.GFLOPS
		case "fp32":
			practical = r.GFLOPS
		}
	}
	rep.PracticalGFLOPS = practical
	for _, r := range suite {
		e := struct {
			Precision      string  `json:"precision"`
			GFLOPS         float64 `json:"gflops"`
			SpeedupNaive   float64 `json:"speedup_vs_naive"`
			EffVsPractical float64 `json:"efficiency_vs_practical"`
		}{Precision: r.Precision, GFLOPS: r.GFLOPS}
		if naive > 0 {
			e.SpeedupNaive = r.GFLOPS / naive
		}
		if practical > 0 {
			e.EffVsPractical = r.GFLOPS / practical
		}
		rep.Gemm = append(rep.Gemm, e)
		fmt.Fprintf(os.Stderr, "gemmbench:   %-10s %7.2f GFLOPS (%.2fx naive)\n",
			r.Precision, e.GFLOPS, e.SpeedupNaive)
	}

	// Model-level throughput on the smallest Table 3 model: real forward
	// passes through the same kernels the serving path uses.
	type mc struct {
		name            string
		classes, sz, bs int
	}
	for _, m := range []mc{{models.NameViTTiny, 1000, 32, 8}, {"ResNet_Mini", 10, 64, 8}} {
		var fp32 float64
		for _, prec := range models.ExecPrecisions() {
			ips, err := modelImagesPerSec(m.name, m.classes, m.sz, m.bs, prec)
			if err != nil {
				return err
			}
			if prec == models.PrecFP32 {
				fp32 = ips
			}
			e := struct {
				Model        string  `json:"model"`
				Precision    string  `json:"precision"`
				Batch        int     `json:"batch"`
				ImagesPerSec float64 `json:"images_per_sec"`
				SpeedupFP32  float64 `json:"speedup_vs_fp32"`
			}{Model: m.name, Precision: prec, Batch: m.bs, ImagesPerSec: ips}
			if fp32 > 0 {
				e.SpeedupFP32 = ips / fp32
			}
			rep.Models = append(rep.Models, e)
			fmt.Fprintf(os.Stderr, "gemmbench:   %-12s %-5s %8.2f img/s\n", m.name, prec, ips)
		}
	}

	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "gemmbench: wrote %s\n", path)
	return nil
}
