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

// TestGoldenLogitsStripTile is the int8 rows of models.TestGoldenLogits
// — same forward, inputs and hashes — with the int8 GEMM held to the
// AVX2 6×16 tile, so that body keeps its bit-identity check on hosts
// whose dispatch picks the VNNI pair tile.
func TestGoldenLogitsStripTile(t *testing.T) {
	if tensor.Kernels == "go" {
		t.Skip("Go bodies: the hashes are those of the AVX2/FMA bodies")
	}
	golden := []struct {
		model string
		size  int
		hash  uint64
	}{
		{models.NameViTTiny, 32, 0x4b437528d4bc2d40},
		{"ResNet_Mini", 64, 0x019298eff3e1cc94},
		{"ViT_Micro", 32, 0xe99cee1057fc9525},
	}
	tensor.WithoutQ7Pair(func() {
		for _, g := range golden {
			m, err := models.NewExecutable(g.model, 1000, models.PrecInt8, stats.NewRNG(1))
			if err != nil {
				t.Fatal(err)
			}
			x := tensor.New(3, 3, g.size, g.size)
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
				t.Errorf("%s int8 on the 6×16 tile: logits hash %016x, want %016x", g.model, got, g.hash)
			}
		}
	})
}
