package index

import (
	"math/rand"
	"testing"
)

// refMasks is windowMasks byte by byte.
func refMasks(w []byte) (lt, gt, slash, dquote, squote, bang, inTag uint64) {
	in := false
	for i, c := range w[:64] {
		bit := uint64(1) << i
		switch c {
		case '<':
			lt |= bit
		case '>':
			gt |= bit
		case '/':
			slash |= bit
		case '"':
			dquote |= bit
		case '\'':
			squote |= bit
		case '!', '?':
			bang |= bit
		}
		if c == '<' || c == '>' {
			in = !in
		}
		if in {
			inTag |= bit
		}
	}
	return
}

// checkMasks compares the kernel with refMasks on the 64 bytes at w.
func checkMasks(t testing.TB, w []byte) {
	got := [7]uint64{}
	want := [7]uint64{}
	got[0], got[1], got[2], got[3], got[4], got[5], got[6] = windowMasks(&w[0])
	want[0], want[1], want[2], want[3], want[4], want[5], want[6] = refMasks(w)
	if got != want {
		t.Fatalf("%q: kernel %016x, byte by byte %016x", w[:64], got, want)
	}
}

// TestWindowMasks holds the kernel to refMasks on random windows, half
// of their bytes drawn from the ones it looks for.
func TestWindowMasks(t *testing.T) {
	if !windowKernel {
		t.Skip("the CPU runs no window kernel")
	}
	rng := rand.New(rand.NewSource(1))
	special := []byte(`<>/"'!?`)
	w := make([]byte, 64)
	for n := 0; n < 100000; n++ {
		for i := range w {
			if rng.Intn(2) == 0 {
				w[i] = special[rng.Intn(len(special))]
			} else {
				w[i] = byte(rng.Intn(256))
			}
		}
		checkMasks(t, w)
	}
}
