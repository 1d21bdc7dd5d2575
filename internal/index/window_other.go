//go:build !amd64

package index

// Without the amd64 kernel Balance is the per-construct loop alone.

func hasWindowKernel() bool { return false }

func windowMasks(p *byte) (lt, gt, slash, dquote, squote, bang, inTag uint64) {
	panic("index: no window kernel on this architecture")
}
