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

// balanceFragments are TestBalanceMatchesClassify's inputs and
// FuzzBalance's seeds. The ones longer than 64 bytes reach the window
// path from offset 0 already; the prefixes of text reach it from every
// phase.
var balanceFragments = []string{
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
	// A 100-byte tag with a quoted '>'.
	`<t a="` + strings.Repeat("v", 40) + `>` + strings.Repeat("w", 40) + `" b="2">x</t></u>`,
	strings.Repeat(`<q a='1' b='>'>'t'</q>`, 4) + `</u>`,
	strings.Repeat("t", 62) + `<!-- <a> -->` + strings.Repeat(`<b/>`, 16) + `</u>`,
	strings.Repeat("t", 63) + `<!-- <a> -->` + strings.Repeat(`<b/>`, 16) + `</u>`,
	`<a>` + strings.Repeat(`<b/>`, 8) + `</a></u>` + strings.Repeat(`<c/>`, 12),
	strings.Repeat(`<a></><a></a/>`, 6) + `</>` + `</a/>` + `</u>`,
	strings.Repeat(`<a x="1" y="2"/>`, 5) + `<b x="1" y="2>`,
	strings.Repeat(`<a>t > u</a>`, 8) + `</u>`,
	strings.Repeat(`<a x="1">t</a>`, 6) + `<a x="1><b/>"/></u>`,
	strings.Repeat(`<a>t "u" 'v'</a>`, 6) + `<?pi?></u>`,
	strings.Repeat(`<a></a x=">">`, 6) + `</u>`,
}

// TestBalanceMatchesClassify holds the sweep to the per-construct loop
// on every prefix of every fragment, from every offset and at depths 0
// to 2, with the window path on and off: a cut anywhere — inside a
// name, a quoted value, an end tag — must stop both at the same '<'
// with the same depth and count. Each fragment is read again after 1
// to 70 bytes of text, so every construct straddles a window edge at
// every phase; those runs start at offsets 0 to 70 only.
func TestBalanceMatchesClassify(t *testing.T) {
	for _, frag := range balanceFragments {
		for lead := 0; lead <= 70; lead++ {
			data := []byte(strings.Repeat("t", lead) + frag)
			from := len(data)
			if lead > 0 {
				from = 70
			}
			for n := 0; n <= len(data); n++ {
				for pos := 0; pos <= n && pos <= from; pos++ {
					for depth := 0; depth <= 2; depth++ {
						checkBalance(t, data[:n], pos, depth)
					}
				}
			}
		}
	}
}

// windowKernel is what init chose: whether this CPU runs the window
// path at all.
var windowKernel = blockSkip

// checkBalance compares Balance, with the window path on and off, with
// the per-construct loop.
func checkBalance(t testing.TB, data []byte, pos, depth int) {
	wp, wd, we := balanceByClassify(data, pos, depth)
	defer func(on bool) { blockSkip = on }(blockSkip)
	for _, on := range []bool{false, windowKernel} {
		blockSkip = on
		gp, gd, ge := Balance(data, pos, depth)
		if gp != wp || gd != wd || ge != we {
			t.Fatalf("%q from %d at depth %d, window path %v: Balance (%d, %d, %d), per construct (%d, %d, %d)",
				data, pos, depth, on, gp, gd, ge, wp, wd, we)
		}
	}
}

// FuzzBalance holds Balance, with the window path on and off, to the
// per-construct loop on arbitrary bytes, offsets and depths.
func FuzzBalance(f *testing.F) {
	for _, frag := range balanceFragments {
		f.Add([]byte(frag), uint16(0), uint8(1))
	}
	f.Fuzz(func(t *testing.T, data []byte, pos uint16, depth uint8) {
		checkBalance(t, data, int(pos)%(len(data)+1), int(depth))
	})
}
