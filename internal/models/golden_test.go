package models

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"harvest/internal/stats"
	"harvest/internal/tensor"
)

// TestGoldenLogits pins the bits of every executable precision's logits:
// FNV-64a over the little-endian float32 bits of a batch-3 forward, with
// NewRNG(1) weights, a NewRNG(2) input at scale 1 and 1000 classes. A
// kernel change that claims bit-identical logits must leave all twelve
// hashes alone. The fp32 GEMM's FMA rounds once per multiply-add, so
// the bits hold only where the AVX2/FMA bodies run: the test skips only
// on the Go bodies, so no renamed pick can switch it off.
func TestGoldenLogits(t *testing.T) {
	if tensor.Kernels == "go" {
		t.Skip("Go bodies: the hashes are those of the AVX2/FMA bodies")
	}
	golden := []struct {
		model, prec string
		hash        uint64
	}{
		{NameViTTiny, PrecFP32, 0x6b13282841612e41},
		{NameViTTiny, PrecFP16, 0x5d6e05ee06e51a79},
		{NameViTTiny, PrecBF16, 0xa16c776f7b2dc5ce},
		{NameViTTiny, PrecInt8, 0x4b437528d4bc2d40},
		{"ResNet_Mini", PrecFP32, 0x45f2f4d208aef73c},
		{"ResNet_Mini", PrecFP16, 0x21002a5936542e28},
		{"ResNet_Mini", PrecBF16, 0x724dbf027cfb7388},
		{"ResNet_Mini", PrecInt8, 0x019298eff3e1cc94},
		{"ViT_Micro", PrecFP32, 0x25eb143f650593a0},
		{"ViT_Micro", PrecFP16, 0xc975428a4867f190},
		{"ViT_Micro", PrecBF16, 0xa81f2e14b1ef635c},
		{"ViT_Micro", PrecInt8, 0xe99cee1057fc9525},
	}
	for _, g := range golden {
		m, err := NewExecutable(g.model, 1000, g.prec, stats.NewRNG(1))
		if err != nil {
			t.Fatal(err)
		}
		sz := 32
		if g.model == "ResNet_Mini" {
			sz = 64
		}
		x := tensor.New(3, 3, sz, sz)
		x.RandInit(stats.NewRNG(2), 1)
		y := mustForward(t, m, x)
		h := fnv.New64a()
		var b [4]byte
		for _, v := range y.Data {
			binary.LittleEndian.PutUint32(b[:], math.Float32bits(v))
			h.Write(b[:])
		}
		if got := h.Sum64(); got != g.hash {
			t.Errorf("%s %s: logits hash %016x, want %016x", g.model, g.prec, got, g.hash)
		}
	}
}
