package scan

// Skip-scan: when a start tag's name is not in π, the whole subtree is
// discarded. How closely the discarded bytes are looked at is the one
// thing Options.Validate decides beyond DTD validation:
//
// With Validate the subtree is checked as the decoder path checks it
// when it consumes the subtree token by token — names, attribute syntax,
// entities, character ranges, comment and PI rules, every end tag
// against its start tag (skipScan, and longTag unpinned for the
// attributes) — but nothing is materialised: no symbol lookups, no
// attribute decisions, no output.
//
// Without it the subtree is only balanced (skipBalance): one sweep
// (index.Balance) passes text, start tags and inner end tags with a
// depth counter, and each construct it hands back is classified with the
// structural classifier internal/index builds its indexes with. No
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

// skipTag consumes the rest of a discarded element's start tag — the
// mark is at its '<', its name is read — reporting whether the element
// was self-closing: with Validate checked as the long way checks a kept
// one, but unpinned, and without only balanced.
func (pr *pruner) skipTag() (empty bool, err error) {
	if pr.opts.Validate {
		return pr.s.longTag(&pr.ltag, false)
	}
	pr.s.pos = pr.s.mark
	kind, _, err := pr.construct()
	return kind == index.StartEmpty, err
}

// skipAll skip-scans the current discarded region — the names of its
// open elements already sit on the skip name stack — counting what it
// skips: checked token by token with Validate, only balanced without.
func (pr *pruner) skipAll() error {
	if pr.opts.Validate {
		return pr.skipScan()
	}
	return pr.skipBalance()
}

// skipScan consumes the content and end tags of the discarded elements
// whose names sit on the skip name stack, counting skipped elements and
// logical text runs. Depth-only scanning with full well-formedness
// checks; memory stays constant. Depth is the name stack itself
// (pr.skipNames.depth()); pending is set while a non-whitespace logical
// text run is open, to be counted once at the next tag.
func (pr *pruner) skipScan() error {
	s := pr.s
	pending := false
	flush := func() {
		if pending {
			pr.st.TextIn++
			pr.st.TextSkipped++
			pending = false
		}
	}
	for pr.skipNames.depth() > 0 {
		if s.pos == s.end && !s.fill() {
			return s.readErr()
		}
		if s.buf[s.pos] != '<' {
			_, info, ok := s.plainChunk(-1)
			if !ok {
				var err error
				if pr.skipText, info, err = s.text(pr.skipText[:0], -1, false); err != nil {
					return err
				}
			}
			if !info.ws {
				pending = true
			}
			continue
		}
		s.pos++
		// An end tag is taken straight from the bytes, and so is a plain
		// start tag, read whole by the tag kernel, which checks all the
		// long way would; whatever it refuses goes through markup.
		kind, err := markupEnd, error(nil)
		if s.pos < s.end && s.buf[s.pos] == '/' {
			s.pos++
		} else {
			if !pr.opts.general {
				if name, attrs, empty, _, ok := s.plainTag(pr.kattrs[:0], false); ok {
					pr.kattrs = attrs
					s.clearMark() // what pinned the discarded element's tag
					flush()
					pr.st.ElementsIn++
					pr.st.ElementsSkipped++
					if !empty {
						pr.skipNames.push(name)
					}
					continue
				}
			}
			if kind, err = s.markup(); err != nil {
				return err
			}
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
			pr.skipText, info, err = s.text(pr.skipText[:0], -1, true)
			if err != nil {
				return err
			}
			if !info.ws {
				pending = true
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
			empty, err := s.longTag(&pr.ltag, false)
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
// it.
//
// Each turn of the loop first runs the sweep over the bytes in hand,
// which passes text, start tags and inner end tags on locals and stops at
// the '<' of anything else; the rest of the turn reads that one construct
// — refilling, checking the discarded element's own end tag, raising
// every error — as it would without the sweep.
func (pr *pruner) skipBalance() error {
	s := pr.s
	s.clearMark()
	for pr.skipNames.depth() > 0 {
		var n int
		s.pos, pr.skipDepth, n = index.Balance(s.buf[:s.end], s.pos, pr.skipDepth)
		pr.st.ElementsIn += int64(n)
		pr.st.ElementsSkipped += int64(n)
		j := 0 // tags mostly follow tags
		if s.pos == s.end || s.buf[s.pos] != '<' {
			j = bytes.IndexByte(s.buf[s.pos:s.end], '<')
		}
		if j < 0 {
			s.pos = s.end
			if s.fill() {
				continue
			}
			return s.readErr()
		}
		s.pos += j
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
			if !closesName(tag, pr.skipNames.top()) {
				return errSyntax("element <" + string(pr.skipNames.top()) + "> closed by </" + string(tag) + ">")
			}
			pr.skipNames.pop()
		}
	}
	return nil
}
