package index

// Balance's window path: 64 bytes at a time, from the bitmaps of one
// kernel call, as far as the bitmaps prove the per-construct loop
// would read the bytes the same way.

import "math/bits"

// blockSkip turns the window path on. It is set once, from the CPU
// (hasWindowKernel); only tests change it.
var blockSkip = hasWindowKernel()

// settleWindows passes data from pos, in content inside an element
// with depth elements open below it, a 64-byte window at a time while
// depth > 0 and 64 bytes remain, and returns where it stopped, the
// depth there and the start tags it passed. In each window it passes
// whole start and end tags and text only, and stops where Balance's
// per-construct loop has to look:
//   - at the '<' of a tag the window cuts off;
//   - at the first byte in doubt — a '<' inside a tag, a '>' in text, a
//     "<!" or "<?", a single quote inside a tag, a '<' or '>' inside a
//     quoted value, or a tag with an odd number of '"' (the quote's
//     interior reaches its '>') — or at the '<' of the tag holding it;
//   - at the end tag that finds depth 0, the discarded element's own.
//
// It returns when a window passes nothing. Before the first byte in
// doubt the tags alternate '<' then '>', so inTag is set from each
// tag's '<' up to its '>', each '"' in a tag is matched by the next
// one, and every '>' ends a tag where classifyStartTag or the end-tag
// rule ends it.
func settleWindows(data []byte, pos, depth int) (int, int, int) {
	elems := 0
	for depth > 0 && len(data)-pos >= 64 {
		lt, gt, slash, dquote, squote, bang, inTag := windowMasks(&data[pos])
		endLt := lt & (slash >> 1)
		doubt := lt&^inTag | gt&inTag | lt&(bang>>1) | squote&inTag
		if q := dquote & inTag; q != 0 {
			doubt |= (lt | gt) & prefixXOR(q)
		}
		cut := bits.TrailingZeros64(doubt) // 64 when there is no doubt
		in := uint64(1)<<cut - 1           // every bit when cut is 64
		// A tag still open at the cut is left whole to the next step.
		// Selected, not branched on: about half of all windows end in one.
		lastLt := bits.Len64(lt&in) - 1
		if inTag&^(in>>1)&in != 0 {
			cut = lastLt
		}
		if cut <= 0 {
			break
		}
		in = uint64(1)<<cut - 1
		ends := endLt & in
		starts := lt &^ endLt & in
		// Adding each end tag's '<' to inTag carries through the tag into
		// the '>' that closes it.
		endGt := (inTag + endLt) & gt
		empties := gt & (slash << 1) &^ endGt & in
		if bits.OnesCount64(ends) > depth {
			// One of the end tags may close the discarded element: walk the
			// tags in order, an element opening at its start tag's '>'.
			opens := gt &^ endGt &^ empties & in
			for tags := opens | ends; tags != 0; tags &= tags - 1 {
				i := bits.TrailingZeros64(tags)
				switch {
				case opens>>i&1 != 0:
					depth++
				case depth == 0:
					return pos + i, 0, elems + bits.OnesCount64(starts&(1<<i-1))
				default:
					depth--
				}
			}
			pos, elems = pos+cut, elems+bits.OnesCount64(starts)
			continue
		}
		n := bits.OnesCount64(starts)
		pos, depth, elems = pos+cut, depth+n-bits.OnesCount64(empties)-bits.OnesCount64(ends), elems+n
	}
	return pos, depth, elems
}

// prefixXOR sets bit i of its result to the parity of bits 0 to i of x.
func prefixXOR(x uint64) uint64 {
	x ^= x << 1
	x ^= x << 2
	x ^= x << 4
	x ^= x << 8
	x ^= x << 16
	x ^= x << 32
	return x
}
