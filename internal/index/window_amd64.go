package index

// windowMasks is the window kernel (window_amd64.s): over the 64 bytes
// at p, the bitmaps (bit i is byte i) of '<', '>', '/', '"', the single
// quote and of '!' or '?', and inTag, the prefix XOR of '<' | '>'. It
// needs AVX2 and PCLMULQDQ.
//
//go:noescape
func windowMasks(p *byte) (lt, gt, slash, dquote, squote, bang, inTag uint64)

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax uint32)

// hasWindowKernel reports whether the CPU runs windowMasks: AVX2 and
// PCLMULQDQ, with the OS saving the YMM registers.
func hasWindowKernel() bool {
	const (
		pclmulqdq = 1 << 1
		osxsave   = 1 << 27
		avx       = 1 << 28
		avx2      = 1 << 5
		xmmYmm    = 1<<1 | 1<<2
	)
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx, _ := cpuid(1, 0)
	if ecx&(pclmulqdq|osxsave|avx) != pclmulqdq|osxsave|avx || xgetbv()&xmmYmm != xmmYmm {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}
