package index

// useAVX2 selects passingAVX2 for passing. Set once, here; tests force
// it off to hold the generic loop to the same properties.
var useAVX2 = haveAVX2()

// haveAVX2 reports whether the CPU has AVX2 and the operating system
// saves the YMM registers across context switches.
func haveAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(osxsave|avx) != osxsave|avx {
		return false
	}
	const sseState, ymmState = 1 << 1, 1 << 2
	if xcr0, _ := xgetbv(); xcr0&(sseState|ymmState) != sseState|ymmState {
		return false
	}
	const avx2 = 1 << 5
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}

func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// passingAVX2 is passingGeneric in AVX2 (scan_amd64.s). Call it only
// when useAVX2 is set.
//
//go:noescape
func passingAVX2(sigs []uint64, want uint64) int
