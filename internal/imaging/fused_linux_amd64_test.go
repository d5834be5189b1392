package imaging

import (
	"runtime/debug"
	"testing"

	"harvest/internal/guardpage"
	"harvest/internal/stats"
)

// TestFusedGathersStayInsidePix places each source's last pixel byte
// just before a PROT_NONE page: a gather that reads one byte past Pix
// faults the test.
func TestFusedGathersStayInsidePix(t *testing.T) {
	if !fusedAVX2 {
		t.Skip("CPU has no AVX2: the gathers do not run")
	}
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	rng := stats.NewRNG(7)
	for _, c := range []struct{ w, h, out int }{
		{96, 96, 224}, {512, 512, 224}, {224, 224, 224}, {37, 29, 16}, {8, 8, 8}, {5, 3, 2}, {300, 17, 50},
	} {
		src := randomImage(c.w, c.h, rng)
		guardpage.OnGuard(t, len(src.Pix), func(pix []byte) {
			copy(pix, src.Pix)
			got := fused(t, &Image{W: c.w, H: c.h, Pix: pix}, c.out)
			compareTensors(t, naivePreproc(src, c.out), got, c.w, c.h, c.out)
		})
	}
}
