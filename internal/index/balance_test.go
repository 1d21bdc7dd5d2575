package index

import (
	"bytes"
	"strings"
	"testing"
)

// balanceByClassify is what Balance replaces: the per-construct loop,
// memchr to the next '<' and Classify on what is there, stopping where
// Balance's contract says it stops.
func balanceByClassify(data []byte, pos, depth int) (int, int, int) {
	elems := 0
	for {
		j := bytes.IndexByte(data[pos:], '<')
		if j < 0 {
			return len(data), depth, elems
		}
		pos += j
		kind, end, st := Classify(data, pos)
		if st != OK {
			return pos, depth, elems
		}
		switch kind {
		case Start:
			depth++
			elems++
		case StartEmpty:
			elems++
		case End:
			if depth == 0 {
				return pos, depth, elems
			}
			depth--
		default:
			return pos, depth, elems
		}
		pos = end
	}
}

// TestBalanceMatchesClassify holds the sweep to the per-construct loop
// on every prefix of every fragment, from every offset and at depths 0
// to 2: a cut anywhere — inside a name, a quoted value, an end tag — must
// stop both at the same '<' with the same depth and count.
func TestBalanceMatchesClassify(t *testing.T) {
	for _, frag := range []string{
		`<x a=">" b="/>">t<y c='/>'/></x>`,
		`<x a="it's" b='say "hi"'>t</x>`,
		`<a /><a ></a ><b><c/></b >`,
		`a<!-- <x> </a> -->b<y/></z>`,
		`<x><![CDATA[</x><y>]]></x>`,
		`<?p </a> <x> ?><y/>`,
		`<!D "</a>" <e <!-- > --> > ><y/>`,
		`<x><y a="1" <z></y></x>`,
		`<x a="1<2"/>`,
		`<x>t</x><y>u</y></z>tail<w/>`,
		`<<>></>` + "\n<x\n/>",
		strings.Repeat(`<p><q r="1">text</q></p> `, 4) + `</end>`,
	} {
		data := []byte(frag)
		for n := 0; n <= len(data); n++ {
			for pos := 0; pos <= n; pos++ {
				for depth := 0; depth <= 2; depth++ {
					gp, gd, ge := Balance(data[:n], pos, depth)
					wp, wd, we := balanceByClassify(data[:n], pos, depth)
					if gp != wp || gd != wd || ge != we {
						t.Fatalf("%q[:%d] from %d at depth %d: Balance (%d, %d, %d), per construct (%d, %d, %d)",
							frag, n, pos, depth, gp, gd, ge, wp, wd, we)
					}
				}
			}
		}
	}
}
