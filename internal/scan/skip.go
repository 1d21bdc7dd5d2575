package scan

// Skip-scan: when a start tag's name is not in π, the whole subtree is
// discarded. The scanner still enforces well-formedness — names,
// attribute syntax, entities, character ranges, comment and PI rules,
// end-tag matching — exactly as the decoder path does when it consumes
// the subtree token by token, but nothing is materialised: no symbol
// lookups, no attribute decisions, no output. Only the stats contract
// is maintained (ElementsSkipped and logical TextSkipped runs).

import "math/bits"

// pushSkipName records a full tag name on the skip name stack (one
// shared buffer; allocation-free in steady state).
func (pr *pruner) pushSkipName(name []byte) {
	pr.skipOffs = append(pr.skipOffs, len(pr.skipBuf))
	pr.skipBuf = append(pr.skipBuf, name...)
}

func (pr *pruner) popSkipName() {
	last := len(pr.skipOffs) - 1
	pr.skipBuf = pr.skipBuf[:pr.skipOffs[last]]
	pr.skipOffs = pr.skipOffs[:last]
}

func (pr *pruner) topSkipName() []byte {
	return pr.skipBuf[pr.skipOffs[len(pr.skipOffs)-1]:]
}

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
		ok, err := s.readName()
		if err != nil {
			s.clearMark()
			return false, err
		}
		if !ok {
			s.clearMark()
			return false, errSyntax("expected attribute name in element")
		}
		nm := s.marked()
		if !s.checkName(nm) {
			err := errSyntax("invalid XML name: " + string(nm))
			s.clearMark()
			return false, err
		}
		if _, _, okn := splitName(nm); !okn {
			s.clearMark()
			return false, errSyntax("expected attribute name in element")
		}
		s.clearMark()
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
		pr.attrVal, _, err = s.text(pr.attrVal[:0], int(qb), false)
		if err != nil {
			return false, err
		}
	}
}

// skipAll skip-scans the current discarded region — the names of its
// open elements already sit on the skip name stack — and distributes the
// skipped-node counts to every surviving projector: alone, each would
// consume exactly this region with the skip scan, either from this
// element or from a shallower discarded ancestor.
func (pr *pruner) skipAll() error {
	preE, preT := pr.st.ElementsSkipped, pr.st.TextSkipped
	err := pr.skipScan()
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
// (len(pr.skipOffs)), so a modePipe window boundary can pause the scan
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
	for frag || len(pr.skipOffs) > 0 {
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
				if len(pr.skipOffs) != 0 {
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
			var info textInfo
			var err error
			pr.attrVal, info, err = s.text(pr.attrVal[:0], -1, false)
			if err != nil {
				return err
			}
			if !info.ws {
				pr.skipPending = true
			}
			continue
		}
		b2, ok := s.getc()
		if !ok {
			return s.readErr()
		}
		switch b2 {
		case '/':
			flush()
			s.setMark()
			ok, err := s.readName()
			if err != nil {
				s.clearMark()
				return err
			}
			if !ok {
				s.clearMark()
				return errSyntax("expected element name after </")
			}
			nameEnd := s.pos - s.mark
			s.space()
			b, ok = s.getc()
			if !ok {
				s.clearMark()
				return s.readErr()
			}
			if b != '>' {
				err := errSyntax("invalid characters between </" + string(s.buf[s.mark:s.mark+nameEnd]) + " and >")
				s.clearMark()
				return err
			}
			name := s.buf[s.mark : s.mark+nameEnd]
			if !s.checkName(name) {
				err := errSyntax("invalid XML name: " + string(name))
				s.clearMark()
				return err
			}
			if _, _, okn := splitName(name); !okn {
				s.clearMark()
				return errSyntax("expected element name after </")
			}
			if len(pr.skipOffs) == 0 {
				err := errSyntax("unbalanced end element " + string(name))
				s.clearMark()
				return err
			}
			if string(name) != string(pr.topSkipName()) {
				err := errSyntax("element <" + string(pr.topSkipName()) + "> closed by </" + string(name) + ">")
				s.clearMark()
				return err
			}
			s.clearMark()
			pr.popSkipName()
		case '?':
			if err := s.skipPI(); err != nil {
				return err
			}
		case '!':
			b3, ok := s.getc()
			if !ok {
				return s.readErr()
			}
			switch b3 {
			case '-':
				b4, ok := s.getc()
				if !ok {
					return s.readErr()
				}
				if b4 != '-' {
					return errSyntax("invalid sequence <!- not part of <!--")
				}
				if err := s.skipComment(); err != nil {
					return err
				}
			case '[':
				if err := s.expectCDATA(); err != nil {
					return err
				}
				var info textInfo
				var err error
				pr.attrVal, info, err = s.text(pr.attrVal[:0], -1, true)
				if err != nil {
					return err
				}
				if !info.ws {
					pr.skipPending = true
				}
			default:
				if err := s.skipDirective(); err != nil {
					return err
				}
			}
		default:
			flush()
			pr.st.ElementsIn++
			pr.st.ElementsSkipped++
			s.ungetc()
			s.setMark()
			ok, err := s.readName()
			if err != nil {
				s.clearMark()
				return err
			}
			if !ok {
				s.clearMark()
				return errSyntax("expected element name after <")
			}
			name := s.marked()
			if !s.checkName(name) {
				err := errSyntax("invalid XML name: " + string(name))
				s.clearMark()
				return err
			}
			if _, _, okn := splitName(name); !okn {
				s.clearMark()
				return errSyntax("expected element name after <")
			}
			pr.pushSkipName(name)
			s.clearMark()
			empty, err := pr.skipAttrs()
			if err != nil {
				return err
			}
			if empty {
				pr.popSkipName()
			}
		}
	}
	return nil
}
