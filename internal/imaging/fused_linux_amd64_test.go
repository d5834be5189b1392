package imaging

import (
	"runtime/debug"
	"syscall"
	"testing"

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
		onGuard(t, len(src.Pix), func(pix []byte) {
			copy(pix, src.Pix)
			got := fused(t, &Image{W: c.w, H: c.h, Pix: pix}, c.out)
			compareTensors(t, naivePreproc(src, c.out), got, c.w, c.h, c.out)
		})
	}
}

// onGuard runs f on an n-byte slice whose last byte is the last one
// before a PROT_NONE page.
func onGuard(t *testing.T, n int, f func(pix []byte)) {
	t.Helper()
	page := syscall.Getpagesize()
	guard := (n + page - 1) / page * page
	mem, err := syscall.Mmap(-1, 0, guard+page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Fatal(err)
	}
	defer syscall.Munmap(mem)
	if err := syscall.Mprotect(mem[guard:], syscall.PROT_NONE); err != nil {
		t.Fatal(err)
	}
	f(mem[guard-n : guard : guard])
}
