package guardpage

import (
	"syscall"
	"testing"
)

// OnGuard runs f on an n-byte slice (cap n) whose last byte is the last
// one before a PROT_NONE page. The caller turns faults into panics
// (debug.SetPanicOnFault) to have a stray read fail the test rather than
// kill the process.
func OnGuard(t testing.TB, n int, f func(mem []byte)) {
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
