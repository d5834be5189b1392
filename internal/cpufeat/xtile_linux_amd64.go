package cpufeat

import "syscall"

// requestTileData asks the kernel for the AMX tile data state
// (arch_prctl ARCH_REQ_XCOMP_PERM, XFEATURE_XTILEDATA), which Linux
// grants per process. A refusal, or a kernel without the call, keeps the
// tiles off.
func requestTileData() bool {
	const archReqXcompPerm, xfeatureXtiledata = 0x1023, 18
	_, _, errno := syscall.RawSyscall(syscall.SYS_ARCH_PRCTL, archReqXcompPerm, xfeatureXtiledata, 0)
	return errno == 0
}
