package tensor_test

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"harvest/internal/models"
	"harvest/internal/stats"
	"harvest/internal/tensor"
)

// TestGoldenLogitsStripTile is models.TestGoldenLogits — same forward,
// inputs and hashes — with the float and int8 GEMMs held to their 6×16
// tiles and the per-element passes to their 8-lane bodies, so those
// bodies keep their bit-identity check on hosts whose dispatch picks the
// AVX-512 pair tiles and 16-lane passes.
func TestGoldenLogitsStripTile(t *testing.T) {
	if tensor.Kernels == "go" {
		t.Skip("Go bodies: the hashes are those of the AVX2/FMA bodies")
	}
	golden := []struct {
		model, prec string
		hash        uint64
	}{
		{models.NameViTTiny, models.PrecFP32, 0x6b13282841612e41},
		{models.NameViTTiny, models.PrecFP16, 0x5d6e05ee06e51a79},
		{models.NameViTTiny, models.PrecBF16, 0xa16c776f7b2dc5ce},
		{models.NameViTTiny, models.PrecInt8, 0x4b437528d4bc2d40},
		{"ResNet_Mini", models.PrecFP32, 0x45f2f4d208aef73c},
		{"ResNet_Mini", models.PrecFP16, 0x21002a5936542e28},
		{"ResNet_Mini", models.PrecBF16, 0x724dbf027cfb7388},
		{"ResNet_Mini", models.PrecInt8, 0x019298eff3e1cc94},
		{"ViT_Micro", models.PrecFP32, 0x25eb143f650593a0},
		{"ViT_Micro", models.PrecFP16, 0xc975428a4867f190},
		{"ViT_Micro", models.PrecBF16, 0xa81f2e14b1ef635c},
		{"ViT_Micro", models.PrecInt8, 0xe99cee1057fc9525},
	}
	tensor.WithoutAVX512(func() {
		for _, g := range golden {
			size := 32
			if g.model == "ResNet_Mini" {
				size = 64
			}
			m, err := models.NewExecutable(g.model, 1000, g.prec, stats.NewRNG(1))
			if err != nil {
				t.Fatal(err)
			}
			x := tensor.New(3, 3, size, size)
			x.RandInit(stats.NewRNG(2), 1)
			y, err := m.Forward(x)
			if err != nil {
				t.Fatal(err)
			}
			h := fnv.New64a()
			var b [4]byte
			for _, v := range y.Data {
				binary.LittleEndian.PutUint32(b[:], math.Float32bits(v))
				h.Write(b[:])
			}
			if got := h.Sum64(); got != g.hash {
				t.Errorf("%s %s on the 6×16 tiles and 8-lane passes: logits hash %016x, want %016x", g.model, g.prec, got, g.hash)
			}
		}
	})
}
