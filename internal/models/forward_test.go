package models

import (
	"math"
	"runtime"
	"sync"
	"testing"

	"harvest/internal/stats"
	"harvest/internal/tensor"
)

// refViTForward is the old arithmetic, kept as an oracle: one image at a
// time, MatMulNaive, float64 GELU and softmax exponentials, and a copy
// of Q, K and V per head.
func refViTForward(m *ViTModel, x *tensor.Tensor, b int) []float32 {
	c := m.Config
	d, p, s := c.Dim, c.PatchSize, c.InputSize
	grid := s / p
	nP, pin, dh := grid*grid, 3*p*p, c.Dim/c.Heads
	n := nP + 1
	linear := func(x, w, bias *tensor.Tensor) *tensor.Tensor {
		y := tensor.MatMulNaive(x, tensor.Transpose2D(w))
		for i := range y.Data {
			y.Data[i] += bias.Data[i%len(bias.Data)]
		}
		return y
	}
	patches := tensor.New(nP, pin)
	for i := range patches.Data {
		ch, dy, dx := i%pin/(p*p), i%(p*p)/p, i%p
		py, px := i/pin/grid, i/pin%grid
		patches.Data[i] = x.Data[((b*3+ch)*s+py*p+dy)*s+px*p+dx]
	}
	tokens := tensor.New(n, d)
	copy(tokens.Data, m.clsToken.Data)
	copy(tokens.Data[d:], linear(patches, m.patchW, m.patchB).Data)
	tensor.AddInPlace(tokens, m.posEmbed)
	for _, blk := range m.blocks {
		h := tokens.Clone()
		tensor.LayerNorm(h, blk.norm1G, blk.norm1B, 1e-6)
		qkv := linear(h, blk.qkvW, blk.qkvB)
		attn := tensor.New(n, d)
		for hd := 0; hd < c.Heads; hd++ {
			q, k, v := tensor.New(n, dh), tensor.New(n, dh), tensor.New(n, dh)
			for t := 0; t < n; t++ {
				for j, dst := range []*tensor.Tensor{q, k, v} {
					copy(dst.Data[t*dh:(t+1)*dh], qkv.Data[t*3*d+j*d+hd*dh:])
				}
			}
			sc := tensor.MatMulNaive(q, tensor.Transpose2D(k))
			for i := 0; i < n; i++ {
				row, mx, sum := sc.Data[i*n:(i+1)*n], math.Inf(-1), 0.0
				for _, v := range row {
					mx = math.Max(mx, float64(v))
				}
				e := make([]float64, n)
				for j, v := range row {
					e[j] = math.Exp((float64(v) - mx) / math.Sqrt(float64(dh)))
					sum += e[j]
				}
				for j := range row {
					row[j] = float32(e[j] / sum)
				}
			}
			o := tensor.MatMulNaive(sc, v)
			for t := 0; t < n; t++ {
				copy(attn.Data[t*d+hd*dh:t*d+(hd+1)*dh], o.Data[t*dh:(t+1)*dh])
			}
		}
		tensor.AddInPlace(tokens, linear(attn, blk.projW, blk.projB))
		h = tokens.Clone()
		tensor.LayerNorm(h, blk.norm2G, blk.norm2B, 1e-6)
		f := linear(h, blk.fc1W, blk.fc1B)
		for i, v := range f.Data {
			u := float64(v)
			f.Data[i] = float32(0.5 * u * (1 + math.Tanh(0.7978845608028654*(u+0.044715*u*u*u))))
		}
		tensor.AddInPlace(tokens, linear(f, blk.fc2W, blk.fc2B))
	}
	cls := tensor.FromSlice(tokens.Data[:d], 1, d)
	tensor.LayerNorm(cls, m.normG, m.normB, 1e-6)
	return linear(cls, m.headW, m.headB).Data
}

// TestViTForwardMatchesReference bounds the distance between Forward
// (AVX2/FMA tiles, float32 exp, fused epilogues, whole-batch GEMMs) and
// the old arithmetic at 1e-4 of the logit range, on ViT_Micro and on
// ViT_Tiny's layer shapes (seq 257, width 192, 3 heads of 64, MLP 768,
// so K blocking, edge tiles and the attention tasks all run) at depth 2:
// the naive reference costs 0.1 GMAC per block, and tier-1 time is kept
// for TestViTForwardBatchConsistency's full-depth ViT_Tiny.
func TestViTForwardMatchesReference(t *testing.T) {
	tiny := ViTTinyConfig(10)
	tiny.Depth = 2
	for _, cfg := range []ViTConfig{MicroViTConfig(10), tiny} {
		if cfg.Name == NameViTTiny && raceEnabled {
			continue // the naive reference is too slow under race instrumentation
		}
		m, err := NewViTModel(cfg, stats.NewRNG(2))
		if err != nil {
			t.Fatal(err)
		}
		x := execInput(t, cfg.Name, 2)
		got := mustForward(t, m, x)
		scale := logitRange(got)
		for b := 0; b < 2; b++ {
			if cfg.Name == NameViTTiny && b > 0 {
				break
			}
			for j, want := range refViTForward(m, x, b) {
				if d := math.Abs(float64(got.Data[b*10+j]-want)) / scale; d > 1e-4 {
					t.Fatalf("%s image %d logit %d: %v vs reference %v (%.2g of the range)", cfg.Name, b, j, got.Data[b*10+j], want, d)
				}
			}
		}
	}
}

// TestViTForwardSteadyStateAllocs: a warm forward draws its activations,
// scratch and pack buffers from free lists, and its bands and attention
// tasks run on the tensor package's persistent team, which allocates
// nothing per product. So the count at GOMAXPROCS 1 stays under a fixed
// cap (ViT_Tiny allocates 3 times, ResNet_Mini 90 at fp32, one im2col
// buffer per conv, and 36 at int8), and at GOMAXPROCS 2 a warm forward
// allocates at most 4 times more than at 1.
func TestViTForwardSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	for _, c := range []struct {
		name, prec string
		batch      int
		max        float64
	}{
		{NameViTTiny, PrecFP32, 2, 10},
		{NameViTTiny, PrecInt8, 2, 10},
		{"ResNet_Mini", PrecFP32, 8, 100},
		{"ResNet_Mini", PrecInt8, 8, 45},
	} {
		m, err := NewExecutable(c.name, 10, c.prec, stats.NewRNG(1))
		if err != nil {
			t.Fatal(err)
		}
		x := execInput(t, c.name, c.batch)
		forward := func() { mustForward(t, m, x) }
		one, two := allocsAt(1, forward), allocsAt(2, forward)
		t.Logf("warm %s %s b%d forward: %.1f allocations at GOMAXPROCS 1, %.1f at 2", c.name, c.prec, c.batch, one, two)
		if one > c.max {
			t.Errorf("warm %s %s b%d forward allocates %.1f times at GOMAXPROCS 1, want at most %.0f",
				c.name, c.prec, c.batch, one, c.max)
		}
		if two > one+4 {
			t.Errorf("warm %s %s b%d forward allocates %.1f times at GOMAXPROCS 2, want at most %.1f + 4",
				c.name, c.prec, c.batch, two, one)
		}
	}
}

// allocsAt is the mean allocation count of a warm call of f at
// GOMAXPROCS procs, over every goroutine. testing.AllocsPerRun always
// measures at GOMAXPROCS 1.
func allocsAt(procs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	const runs = 5
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / runs
}

// TestForwardConcurrentCallers: executor instances share one model, so
// concurrent forwards must each get the serial answer (run under -race
// by make check).
func TestForwardConcurrentCallers(t *testing.T) {
	for _, name := range []string{"ViT_Micro", "ResNet_Mini"} {
		for _, prec := range []string{PrecFP32, PrecInt8} {
			m, err := NewExecutable(name, 10, prec, stats.NewRNG(1))
			if err != nil {
				t.Fatal(err)
			}
			x := execInput(t, name, 2)
			want := mustForward(t, m, x)
			got := make([]*tensor.Tensor, 4)
			errs := make([]error, 4)
			var wg sync.WaitGroup
			for i := range got {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					got[i], errs[i] = m.Forward(x)
				}(i)
			}
			wg.Wait()
			for i := range got {
				if errs[i] != nil {
					t.Fatal(errs[i])
				}
				requireSameBits(t, name+" "+prec+" concurrent", got[i].Data, want.Data)
			}
		}
	}
}
