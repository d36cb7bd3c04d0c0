//go:build !purego

package field

// AVX512 reports whether the CPU has AVX-512F and the OS saves the opmask
// and ZMM registers. It is read once, from CPUID, at package init; the
// eight-lane kernels of poseidon and of the slice layer (vec.go) run when
// it is set.
var AVX512 = hasAVX512F()

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)

// hasAVX512F checks CPUID for AVX-512F and XCR0 bits 1, 2, 5, 6 and 7
// (SSE, AVX, opmask and both halves of the ZMM state).
func hasAVX512F() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	if _, _, ecx, _ := cpuid(1, 0); ecx&(1<<27) == 0 { // OSXSAVE
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&0xe6 != 0xe6 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<16) != 0
}
