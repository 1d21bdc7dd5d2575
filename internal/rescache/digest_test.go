package rescache

import (
	"math/rand"
	"testing"
)

// digestPieces digests data through a Digester, written as consecutive
// pieces of the given sizes and then whatever they leave over.
func digestPieces(data []byte, sizes []int) Digest {
	var d Digester
	d.Reset()
	for _, n := range sizes {
		n = min(n, len(data))
		d.Write(data[:n])
		data = data[n:]
	}
	d.Write(data)
	return d.Sum()
}

// TestDigesterMatchesDigestBytes: the streaming digest of content cut
// into pieces — empty writes and one-byte writes among them, pieces
// shorter and longer than maphash's 128-byte block, straddling it or
// not — is DigestBytes of the whole, on both sides of every length the
// block size makes special.
func TestDigesterMatchesDigestBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	for _, n := range []int{0, 1, 127, 128, 129, 4096, 65537, 1 << 20} {
		data := make([]byte, n)
		rng.Read(data)
		want := DigestBytes(data)
		// Piece sizes are drawn from [0, most]: most 1 is a run of empty and
		// one-byte writes, most 1<<17 a few large ones.
		for _, most := range []int{0, 1, 2, 127, 129, 5000, 1 << 17} {
			var sizes []int
			for left := n; left > 0; {
				s := rng.Intn(most + 1)
				sizes = append(sizes, s)
				left -= s
				if most == 0 {
					break // one empty write, then the whole
				}
			}
			if got := digestPieces(data, sizes); got != want {
				t.Fatalf("%d bytes in pieces of at most %d (%d writes): streaming digest %s, DigestBytes %s", n, most, len(sizes)+1, got, want)
			}
		}
	}

	// Reset forgets what was written before it.
	var d Digester
	d.Reset()
	d.Write([]byte("stale"))
	d.Reset()
	d.Write([]byte("<a/>"))
	if got, want := d.Sum(), DigestBytes([]byte("<a/>")); got != want {
		t.Fatalf("after Reset: streaming digest %s, DigestBytes %s", got, want)
	}
}

// FuzzDigestSplit: for any content and any split of it — each byte of
// cuts is the size of the next piece, 0 an empty write — the streaming
// digest is DigestBytes of the whole.
func FuzzDigestSplit(f *testing.F) {
	f.Add([]byte(""), []byte(""))
	f.Add([]byte("<site/>"), []byte{0, 1, 0, 2})
	f.Add(make([]byte, 300), []byte{127, 1, 128, 0})
	f.Add(make([]byte, 129), []byte{255})
	f.Fuzz(func(t *testing.T, data, cuts []byte) {
		sizes := make([]int, len(cuts))
		for i, c := range cuts {
			sizes[i] = int(c)
		}
		if got, want := digestPieces(data, sizes), DigestBytes(data); got != want {
			t.Fatalf("%d bytes cut at %v: streaming digest %s, DigestBytes %s", len(data), cuts, got, want)
		}
	})
}
