// Package guardpage is a test helper for assembly bodies that read
// through raw pointers: it hands a test a slice whose last byte sits
// just before a PROT_NONE page, so a read one byte past the slice
// faults. It works on Linux only (OnGuard); elsewhere the package is
// empty and the tests that use it are Linux-only too.
package guardpage
