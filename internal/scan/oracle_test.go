package scan

// The tokeniser's text path as it stood before the byte-class kernel:
// memchr from one special byte to the next, a copy of every chunk, a
// second pass to validate the copy. It is the reference the boundary
// differential (kernel_test.go) holds the kernel and today's text to —
// same verdict, bytes, flags and position for every byte at every offset.

import (
	"bytes"
	"fmt"
	"unicode"
	"unicode/utf8"
)

// firstSpecial returns the index of the first byte of chunk contained
// in specials, or len(chunk) when none occurs. Each byte is located
// with bytes.IndexByte (memchr), bounding every later search by the
// earliest hit so far, so the scan is a handful of vectorised passes
// instead of a byte-at-a-time loop.
func firstSpecial(chunk []byte, specials string) int {
	n := len(chunk)
	for i := 0; i < len(specials); i++ {
		if j := bytes.IndexByte(chunk[:n], specials[i]); j >= 0 {
			n = j
		}
	}
	return n
}

func (s *Scanner) textOracle(dst []byte, quote int, cdata bool) ([]byte, textInfo, error) {
	info := textInfo{verbatim: true}
	base := len(dst)
	// The terminator comes first so the later searches are bounded by
	// its position. ']' matters only in unquoted chardata ("]]>"), '&'
	// and '<' only outside CDATA, '>' only for the verbatim flag (the
	// output escaper rewrites it; CDATA is re-escaped by the caller).
	var specials string
	switch {
	case cdata:
		specials = "]\r"
	case quote < 0:
		specials = "<&]\r>"
	case quote == '"':
		specials = "\"&<\r>"
	default:
		specials = "'&<\r>"
	}
loop:
	for {
		if s.pos == s.end && !s.fill() {
			if cdata {
				if !s.atEOF() {
					return dst, info, s.rerr
				}
				return dst, info, errSyntax("unexpected EOF in CDATA section")
			}
			break
		}
		chunk := s.buf[s.pos:s.end]
		j := firstSpecial(chunk, specials)
		if j > 0 {
			dst = append(dst, chunk[:j]...)
			s.pos += j
			if j == len(chunk) {
				continue
			}
		}
		switch b := chunk[j]; b {
		case '<':
			if quote >= 0 {
				return dst, info, errSyntax("unescaped < inside quoted string")
			}
			break loop // not consumed; the caller reads the tag
		case '&':
			s.pos++
			r, err := s.decodeEntity()
			if err != nil {
				return dst, info, err
			}
			dst = utf8.AppendRune(dst, r)
			info.verbatim = false
		case '\r':
			s.pos++
			dst = append(dst, '\n')
			info.verbatim = false
			// \r\n collapses to the \n already written.
			if s.pos == s.end {
				s.fill()
			}
			if s.pos < s.end && s.buf[s.pos] == '\n' {
				s.pos++
			}
		case '>':
			s.pos++
			dst = append(dst, '>')
			info.verbatim = false
		case ']':
			// Collect the whole run of ']'s, then look at the byte after
			// it: "]]>" ends a CDATA section (chopping the "]]" already
			// appended) and is illegal in plain chardata.
			run := 0
			for {
				if s.pos == s.end && !s.fill() {
					break
				}
				if s.pos < s.end && s.buf[s.pos] == ']' {
					s.pos++
					run++
					dst = append(dst, ']')
					continue
				}
				break
			}
			if run >= 2 {
				if s.pos == s.end {
					s.fill()
				}
				if s.pos < s.end && s.buf[s.pos] == '>' {
					s.pos++
					if cdata {
						dst = dst[:len(dst)-2]
						break loop
					}
					return dst, info, errSyntax("unescaped ]]> not in CDATA section")
				}
			}
		default: // the quote byte ends an attribute value
			s.pos++
			break loop
		}
	}
	// Validate the decoded bytes: UTF-8 and the XML Char production,
	// computing whitespace-ness in the same pass. ASCII runs in a tight
	// byte loop; multi-byte runes fall back to full decoding.
	info.ws = true
	buf := dst[base:]
	i := 0
	for i < len(buf) {
		c := buf[i]
		if c >= utf8.RuneSelf {
			break
		}
		if c > ' ' { // 0x21–0x7F: always a valid, non-space XML char
			info.ws = false
			i++
			continue
		}
		switch c {
		case ' ', '\t', '\n', '\r':
			i++
		default:
			return dst, info, errSyntax(fmt.Sprintf("illegal character code %U", rune(c)))
		}
	}
	for i < len(buf) {
		r, size := utf8.DecodeRune(buf[i:])
		if r == utf8.RuneError && size == 1 {
			return dst, info, errSyntax("invalid UTF-8")
		}
		if !isInCharacterRange(r) {
			return dst, info, errSyntax(fmt.Sprintf("illegal character code %U", r))
		}
		if info.ws && !unicode.IsSpace(r) {
			info.ws = false
		}
		i += size
	}
	return dst, info, nil
}

// qnameOracle is qname before the name kernel: three passes over every
// name.
func (s *Scanner) qnameOracle(what string) (name, prefix, local []byte, err error) {
	rel := s.pos - s.mark
	ok, err := s.readName()
	if err != nil {
		return nil, nil, nil, err
	}
	if !ok {
		return nil, nil, nil, errSyntax("expected " + what)
	}
	name = s.buf[s.mark+rel : s.pos]
	if !s.checkName(name) {
		return nil, nil, nil, errSyntax("invalid XML name: " + string(name))
	}
	prefix, local, ok = splitName(name)
	if !ok {
		return nil, nil, nil, errSyntax("expected " + what)
	}
	return name, prefix, local, nil
}
