package dist

// hasAVX2 reports whether the CPU implements AVX2 and the OS saves
// the YMM registers across context switches (OSXSAVE set and XCR0
// enabling both XMM and YMM state).
var hasAVX2 = detectAVX2()

func detectAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if ecx1&osxsave == 0 || ecx1&avx == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	const avx2 = 1 << 5
	return ebx7&avx2 != 0
}

// cpuid executes CPUID with EAX = leaf and ECX = sub.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv returns XCR0 (XGETBV with ECX = 0).
func xgetbv() (eax, edx uint32)

// rowsAVX2 is rowsGeneric in AVX2 assembly: the interior bins of each
// row run four at a time (VMULPD/VADDPD, no FMA), and the first bin,
// the fewer than four interior bins left over and the last bin run
// one at a time (VMULSD/VADDSD). The caller guarantees the lengths
// rowsGeneric would index: len(qs) ≥ 1, len(w) ≥ len(ps)+len(qs), and
// len(one), len(frc) ≥ len(ps)+len(qs)−1.
//
//go:noescape
func rowsAVX2(w, ps, qs, one, frc []float64)
