// Package cpufeat reports the x86-64 vector features the assembly
// bodies in tensor and imaging need: CPUID's feature bits and the
// register state XGETBV says the OS saves, and, for the AMX tiles, the
// kernel's grant of their state to the process. It is the one copy of
// that probe. Off amd64 the package is empty; its callers pick their Go
// bodies there without asking.
package cpufeat
