package scan

// Skip-scan: when a start tag's name is not in π, the whole subtree is
// discarded. How closely the discarded bytes are looked at is the one
// thing Options.Validate decides beyond DTD validation:
//
// With Validate the subtree is checked as the decoder path checks it
// when it consumes the subtree token by token — names, attribute syntax,
// entities, character ranges, comment and PI rules, every end tag
// against its start tag (skipScan, skipAttrs) — but nothing is
// materialised: no symbol lookups, no attribute decisions, no output.
//
// Without it the subtree is only balanced (skipBalance): memchr to the
// next '<', classify the construct with the structural classifier
// internal/index builds its indexes with, adjust a depth counter. No
// name stack, no attribute parse, no entity decode, no copy, and no
// mark held across text, a comment, a CDATA section, a PI or a
// directive: one of any size streams through the buffer, so the level
// rejects nothing for its size that Validate accepts. Only a tag is
// pinned while it is read, and MaxTokenSize bounds it as it bounds a
// kept one. What is still an error in there: an unterminated construct,
// end of input, a '<' inside a tag, a depth that never returns, and an
// end tag closing the discarded element itself that does not carry its
// name. What is no longer seen: a bad name, attribute syntax, an
// undefined entity, an illegal character or invalid UTF-8, "]]>" in
// text, "--" in a comment, a mismatched inner end-tag name. The paper
// assumes valid input (Thm. 4.5); a caller that does not sets Validate.
//
// The stats contract follows: skipped elements are counted at both
// levels (ElementsIn, ElementsSkipped); skipped text is classified as a
// logical non-whitespace run — TextIn, TextSkipped — only with Validate.

import (
	"bytes"
	"math/bits"

	"xmlproj/internal/index"
)

// nameStack holds the full names of open elements end to end in one
// growable buffer (allocation-free in steady state), for matching end
// tags where no symbol is kept: the skip scan's discarded elements, the
// document walk's open ones.
type nameStack struct {
	buf  []byte
	offs []int // offs[i] is where the i-th name starts in buf
}

func (n *nameStack) push(name []byte) {
	n.offs = append(n.offs, len(n.buf))
	n.buf = append(n.buf, name...)
}

func (n *nameStack) pop() {
	last := len(n.offs) - 1
	n.buf = n.buf[:n.offs[last]]
	n.offs = n.offs[:last]
}

// top returns the innermost name; the stack must not be empty.
func (n *nameStack) top() []byte { return n.buf[n.offs[len(n.offs)-1]:] }

func (n *nameStack) depth() int { return len(n.offs) }

func (n *nameStack) reset() { n.buf, n.offs = n.buf[:0], n.offs[:0] }

// skipAttrs consumes the rest of a start tag — attributes and the
// closing '>' or '/>' — with syntax-level checks only, reporting
// whether the element was self-closing. Attribute values are decoded
// into scratch (their character content must still validate) and
// discarded.
func (pr *pruner) skipAttrs() (empty bool, err error) {
	s := pr.s
	for {
		s.space()
		b, ok := s.getc()
		if !ok {
			return false, s.readErr()
		}
		if b == '/' {
			b2, ok := s.getc()
			if !ok {
				return false, s.readErr()
			}
			if b2 != '>' {
				return false, errSyntax("expected /> in element")
			}
			return true, nil
		}
		if b == '>' {
			return false, nil
		}
		s.ungetc()
		s.setMark()
		_, _, _, err := s.qname("attribute name in element")
		s.clearMark()
		if err != nil {
			return false, err
		}
		s.space()
		b, ok = s.getc()
		if !ok {
			return false, s.readErr()
		}
		if b != '=' {
			return false, errSyntax("attribute name without = in element")
		}
		s.space()
		qb, ok := s.getc()
		if !ok {
			return false, s.readErr()
		}
		if qb != '"' && qb != '\'' {
			return false, errSyntax("unquoted or missing attribute value in element")
		}
		if _, _, ok := s.plainChunk(int(qb)); ok {
			continue
		}
		if pr.attrVal, _, err = s.text(pr.attrVal[:0], int(qb), false); err != nil {
			return false, err
		}
	}
}

// skipTag consumes the rest of a discarded element's start tag — the
// mark is at its '<', its name is read — reporting whether the element
// was self-closing.
func (pr *pruner) skipTag() (empty bool, err error) {
	if pr.opts.Validate {
		return pr.skipAttrs()
	}
	pr.s.pos = pr.s.mark
	kind, _, err := pr.construct()
	return kind == index.StartEmpty, err
}

// skipAll skip-scans the current discarded region — the names of its
// open elements already sit on the skip name stack — and distributes the
// skipped-node counts to every surviving projector: alone, each would
// consume exactly this region with the skip scan, either from this
// element or from a shallower discarded ancestor.
func (pr *pruner) skipAll() error {
	preE, preT := pr.st.ElementsSkipped, pr.st.TextSkipped
	var err error
	if pr.opts.Validate {
		err = pr.skipScan()
	} else {
		err = pr.skipBalance()
	}
	dE, dT := pr.st.ElementsSkipped-preE, pr.st.TextSkipped-preT
	for mk := pr.alive; mk != 0 && dE|dT != 0; mk &= mk - 1 {
		st := &pr.per[bits.TrailingZeros64(mk)].st
		st.ElementsSkipped += dE
		st.TextSkipped += dT
	}
	return err
}

// skipScan consumes the content and end tags of the discarded elements
// whose names sit on the skip name stack, counting skipped elements and
// logical text runs. Depth-only scanning with full well-formedness
// checks; memory stays constant. Depth is the name stack itself
// (pr.skipNames.depth()), so a modePipe window boundary can pause the scan
// (errPause) and the pipelined spine can resume it on the next window
// with nothing but the pruner's own state.
//
// In modeSkipFragment the scan covers one content range inside a
// discarded subtree and is terminated by the end of the range instead
// of by the subtree's end tag. Structure stage 1 verified guarantees the
// range holds complete, balanced constructs, so no end tag here can
// close an element opened outside the range.
func (pr *pruner) skipScan() error {
	s := pr.s
	frag := pr.mode == modeSkipFragment
	flush := func() {
		if pr.skipPending {
			pr.st.TextIn++
			pr.st.TextSkipped++
			pr.skipPending = false
		}
	}
	for frag || pr.skipNames.depth() > 0 {
		if pr.sp != nil && pr.sp.at(s.pos) {
			// A delegated range inside this skipped subtree. The range
			// starts at an element tag, where this loop would flush.
			flush()
			if err := pr.applySkipSplice(); err != nil {
				return err
			}
			continue
		}
		b, ok := s.getc()
		if !ok {
			switch {
			case !s.atEOF():
			case frag:
				// The byte after the range is an element tag, where the
				// pending run would be flushed.
				flush()
				if pr.skipNames.depth() != 0 {
					return errSyntax("unterminated element in skipped content")
				}
				return nil
			case pr.mode == modePipe:
				// Non-final window exhausted at a construct boundary;
				// the next window resumes here.
				return errPause
			}
			return s.readErr()
		}
		if b != '<' {
			s.ungetc()
			_, info, ok := s.plainChunk(-1)
			if !ok {
				var err error
				if pr.attrVal, info, err = s.text(pr.attrVal[:0], -1, false); err != nil {
					return err
				}
			}
			if !info.ws {
				pr.skipPending = true
			}
			continue
		}
		kind, err := s.markup()
		if err != nil {
			return err
		}
		switch kind {
		case markupEnd:
			flush()
			if pr.skipNames.depth() > 0 && closes(s, pr.skipNames.top()) {
				pr.skipNames.pop()
				break
			}
			s.setMark()
			name, _, _, _, err := s.endName()
			switch {
			case err != nil:
			case pr.skipNames.depth() == 0:
				err = errSyntax("unbalanced end element " + string(name))
			case string(name) != string(pr.skipNames.top()):
				err = errSyntax("element <" + string(pr.skipNames.top()) + "> closed by </" + string(name) + ">")
			}
			s.clearMark()
			if err != nil {
				return err
			}
			pr.skipNames.pop()
		case markupCDATA:
			var info textInfo
			pr.attrVal, info, err = s.text(pr.attrVal[:0], -1, true)
			if err != nil {
				return err
			}
			if !info.ws {
				pr.skipPending = true
			}
		case markupStart:
			flush()
			pr.st.ElementsIn++
			pr.st.ElementsSkipped++
			s.setMark()
			name, _, _, err := s.qname("element name after <")
			if err == nil {
				pr.skipNames.push(name)
			}
			s.clearMark()
			if err != nil {
				return err
			}
			empty, err := pr.skipAttrs()
			if err != nil {
				return err
			}
			if empty {
				pr.skipNames.pop()
			}
		}
	}
	return nil
}

// construct classifies the construct whose '<' is at s.pos and consumes
// it, returning its kind and, for a tag, its offset in s.buf. A tag that
// the buffer cuts short is pinned at its '<' and retried with more
// input, so the buffer's cap bounds it exactly as it bounds a kept token
// (ErrTokenTooLong). A comment, CDATA section, PI or directive cut short
// is bounded by nothing, as under Validate: once its opening delimiter
// is in hand the rest streams through the buffer unpinned.
func (pr *pruner) construct() (kind index.Kind, off int, err error) {
	s := pr.s
	for {
		kind, end, st := index.Classify(s.buf[:s.end], s.pos)
		switch st {
		case index.OK:
			off, s.pos = s.pos, end
			return kind, off, nil
		case index.Malformed:
			return kind, s.pos, errSyntax("< inside a tag")
		}
		// With the longest opening delimiter's worth of bytes in hand,
		// the kind of an unfinished construct is settled.
		if s.end-s.pos >= len("<![CDATA[") {
			switch kind {
			case index.Comment:
				return kind, 0, s.skipPast(len("<!--"), []byte("-->"))
			case index.CDATA:
				return kind, 0, s.skipPast(len("<![CDATA["), []byte("]]>"))
			case index.PI:
				return kind, 0, s.skipPast(len("<?"), []byte("?>"))
			case index.Directive:
				// The tokeniser's own loop checks nothing but the
				// nesting index.Classify follows.
				s.pos += len("<!x")
				return kind, 0, s.skipDirective()
			}
		}
		if !s.more() {
			return kind, s.pos, s.readErr()
		}
	}
}

// skipPast consumes the open bytes at s.pos and everything through the
// first term after them, with no mark held: across a refill only the
// bytes a straddling term could have started in are kept.
func (s *Scanner) skipPast(open int, term []byte) error {
	s.pos += open
	for {
		if k := bytes.Index(s.buf[s.pos:s.end], term); k >= 0 {
			s.pos += k + len(term)
			return nil
		}
		if tail := s.end - (len(term) - 1); tail > s.pos {
			s.pos = tail
		}
		if !s.fill() {
			return s.readErr()
		}
	}
}

// more pins the unread bytes and reads until there are at least twice
// as many, so a caller that rescans them after every call still does
// linear work over a construct however small the reads are. It reports
// false when nothing could be added.
func (s *Scanner) more() bool {
	want := 2 * (s.end - s.pos)
	s.setMark()
	got := false
	for s.fill() {
		got = true
		if s.end-s.pos >= want {
			break
		}
	}
	s.clearMark()
	return got
}

// closesName reports whether tag, the bytes between "</" and '>' of an
// end tag, is name followed by nothing but tag-level whitespace.
func closesName(tag, name []byte) bool {
	if !bytes.HasPrefix(tag, name) {
		return false
	}
	for _, b := range tag[len(name):] {
		if b != ' ' && b != '\r' && b != '\n' && b != '\t' {
			return false
		}
	}
	return true
}

// skipBalance is skipScan without Validate: it consumes the content and
// end tag of the discarded element whose name sits on the skip name
// stack by balancing tags. pr.skipDepth counts the elements open inside
// it, so pausing at a modePipe window boundary and resuming on the next
// window works as it does for skipScan; a modeSkipFragment range is
// balanced on its own and ends where the range does.
func (pr *pruner) skipBalance() error {
	s := pr.s
	frag := pr.mode == modeSkipFragment
	s.clearMark()
	for frag || pr.skipNames.depth() > 0 {
		j := 0 // tags mostly follow tags
		if s.pos == s.end || s.buf[s.pos] != '<' {
			j = bytes.IndexByte(s.buf[s.pos:s.end], '<')
		}
		if j < 0 {
			s.pos = s.end
			if s.fill() {
				continue
			}
			switch {
			case !s.atEOF():
			case frag:
				if pr.skipDepth != 0 {
					return errSyntax("unterminated element in skipped content")
				}
				return nil
			case pr.mode == modePipe:
				return errPause
			}
			return s.readErr()
		}
		s.pos += j
		if pr.sp != nil && pr.sp.at(s.pos) {
			if err := pr.applySkipSplice(); err != nil {
				return err
			}
			continue
		}
		kind, off, err := pr.construct()
		if err != nil {
			return err
		}
		switch kind {
		case index.Start:
			pr.skipDepth++
			fallthrough
		case index.StartEmpty:
			pr.st.ElementsIn++
			pr.st.ElementsSkipped++
		case index.End:
			if pr.skipDepth > 0 {
				pr.skipDepth--
				break
			}
			tag := s.buf[off+2 : s.pos-1]
			if frag {
				return errSyntax("unbalanced end element " + string(tag))
			}
			if !closesName(tag, pr.skipNames.top()) {
				return errSyntax("element <" + string(pr.skipNames.top()) + "> closed by </" + string(tag) + ">")
			}
			pr.skipNames.pop()
		}
	}
	return nil
}
