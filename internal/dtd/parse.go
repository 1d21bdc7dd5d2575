package dtd

import (
	"fmt"
	"strings"
	"unicode"
)

// ParseString reads DTD declarations and hands them to New, which builds
// the local tree grammar. rootTag names the document root element; if
// empty, the first declared element is taken as root (the usual
// convention for standalone DTDs).
//
// Supported declarations: <!ELEMENT …> with EMPTY, ANY, mixed and children
// content; <!ATTLIST …>; comments. Parameter entities and conditional
// sections are ParseWithEntities' (none of the benchmark DTDs use them).
func ParseString(src, rootTag string) (*DTD, error) {
	p := &parser{src: src}
	var elems, attlists []Element
	for {
		p.skipMisc()
		if p.eof() {
			break
		}
		kw, err := p.declKeyword()
		if err != nil {
			return nil, err
		}
		switch kw {
		case "ELEMENT":
			e, err := p.elementDecl()
			if err != nil {
				return nil, err
			}
			elems = append(elems, e)
		case "ATTLIST":
			tag, atts, err := p.attlistDecl()
			if err != nil {
				return nil, err
			}
			attlists = append(attlists, Element{Tag: tag, Atts: atts})
		case "ENTITY", "NOTATION":
			// Skipped: scan to the closing '>'.
			if err := p.skipDecl(); err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("dtd: unsupported declaration <!%s at offset %d", kw, p.pos)
		}
	}
	// An <!ATTLIST> may come before its <!ELEMENT>, and one element may
	// have several.
	elemAt := make(map[string]int, len(elems))
	for i, e := range elems {
		elemAt[e.Tag] = i
	}
	for _, al := range attlists {
		i, ok := elemAt[al.Tag]
		if !ok {
			return nil, fmt.Errorf("dtd: <!ATTLIST %s> for undeclared element", al.Tag)
		}
		elems[i].Atts = append(elems[i].Atts, al.Atts...)
	}
	return New(rootTag, elems)
}

// MustParseString is ParseString for known-good sources; it panics on error.
func MustParseString(src, rootTag string) *DTD {
	d, err := ParseString(src, rootTag)
	if err != nil {
		panic(err)
	}
	return d
}

type parser struct {
	src string
	pos int
}

func (p *parser) eof() bool { return p.pos >= len(p.src) }

func (p *parser) peek() byte {
	if p.eof() {
		return 0
	}
	return p.src[p.pos]
}

func (p *parser) skipWS() {
	for !p.eof() && isSpace(p.src[p.pos]) {
		p.pos++
	}
}

// skipMisc skips whitespace and comments between declarations.
func (p *parser) skipMisc() {
	for {
		p.skipWS()
		if strings.HasPrefix(p.src[p.pos:], "<!--") {
			end := strings.Index(p.src[p.pos+4:], "-->")
			if end < 0 {
				p.pos = len(p.src)
				return
			}
			p.pos += 4 + end + 3
			continue
		}
		// Tolerate a <?xml …?> prolog or PIs inside a DTD file.
		if strings.HasPrefix(p.src[p.pos:], "<?") {
			end := strings.Index(p.src[p.pos+2:], "?>")
			if end < 0 {
				p.pos = len(p.src)
				return
			}
			p.pos += 2 + end + 2
			continue
		}
		return
	}
}

// declKeyword consumes "<!KEYWORD" and returns the keyword.
func (p *parser) declKeyword() (string, error) {
	if !strings.HasPrefix(p.src[p.pos:], "<!") {
		return "", fmt.Errorf("dtd: expected declaration at offset %d (found %q)", p.pos, snippet(p.src, p.pos))
	}
	p.pos += 2
	start := p.pos
	for !p.eof() && isNameChar(p.src[p.pos]) {
		p.pos++
	}
	return p.src[start:p.pos], nil
}

// skipDecl scans past the next unquoted '>'.
func (p *parser) skipDecl() error {
	for !p.eof() {
		c := p.src[p.pos]
		switch c {
		case '"', '\'':
			q := c
			p.pos++
			for !p.eof() && p.src[p.pos] != q {
				p.pos++
			}
			if p.eof() {
				return fmt.Errorf("dtd: unterminated literal")
			}
			p.pos++
		case '>':
			p.pos++
			return nil
		default:
			p.pos++
		}
	}
	return fmt.Errorf("dtd: unterminated declaration")
}

func (p *parser) name() (string, error) {
	p.skipWS()
	start := p.pos
	for !p.eof() && isNameChar(p.src[p.pos]) {
		p.pos++
	}
	if p.pos == start {
		return "", fmt.Errorf("dtd: expected name at offset %d (found %q)", p.pos, snippet(p.src, p.pos))
	}
	return p.src[start:p.pos], nil
}

func (p *parser) expect(c byte) error {
	p.skipWS()
	if p.eof() || p.src[p.pos] != c {
		return fmt.Errorf("dtd: expected %q at offset %d (found %q)", string(c), p.pos, snippet(p.src, p.pos))
	}
	p.pos++
	return nil
}

// elementDecl parses the remainder of an <!ELEMENT …> declaration. The
// content model is over element names; for mixed content it refers to
// the element's text name, which Text asks New to create.
func (p *parser) elementDecl() (Element, error) {
	tag, err := p.name()
	if err != nil {
		return Element{}, err
	}
	e := Element{Tag: tag, Content: Epsilon{}}
	p.skipWS()
	switch {
	case strings.HasPrefix(p.src[p.pos:], "EMPTY"):
		p.pos += len("EMPTY")
	case strings.HasPrefix(p.src[p.pos:], "ANY"):
		p.pos += len("ANY")
		e.Any = true
	case p.peek() == '(':
		if e.Content, e.Text, err = p.contentSpec(Name(tag)); err != nil {
			return Element{}, err
		}
	default:
		return Element{}, fmt.Errorf("dtd: bad content spec for %s at offset %d", tag, p.pos)
	}
	return e, p.expect('>')
}

// contentSpec parses mixed or children content, starting at '('.
func (p *parser) contentSpec(owner Name) (Regex, bool, error) {
	// Lookahead for mixed content: ( #PCDATA …
	save := p.pos
	if err := p.expect('('); err != nil {
		return nil, false, err
	}
	p.skipWS()
	if strings.HasPrefix(p.src[p.pos:], "#PCDATA") {
		p.pos += len("#PCDATA")
		alts := []Regex{Ref{TextName(owner)}}
		for {
			p.skipWS()
			if p.peek() == '|' {
				p.pos++
				n, err := p.name()
				if err != nil {
					return nil, false, err
				}
				alts = append(alts, Ref{Name(n)})
				continue
			}
			break
		}
		if err := p.expect(')'); err != nil {
			return nil, false, err
		}
		// The trailing '*' is mandatory when other elements are mixed in,
		// optional for pure (#PCDATA).
		if p.peek() == '*' {
			p.pos++
		}
		return Star{Alt{alts}}, true, nil
	}
	// Children content: back up and parse a cp.
	p.pos = save
	r, err := p.cp()
	if err != nil {
		return nil, false, err
	}
	return r, false, nil
}

// cp parses a content particle: (Name | choice | seq) ('?'|'*'|'+')?.
func (p *parser) cp() (Regex, error) {
	p.skipWS()
	var base Regex
	if p.peek() == '(' {
		p.pos++
		first, err := p.cp()
		if err != nil {
			return nil, err
		}
		p.skipWS()
		switch p.peek() {
		case '|':
			items := []Regex{first}
			for p.peek() == '|' {
				p.pos++
				it, err := p.cp()
				if err != nil {
					return nil, err
				}
				items = append(items, it)
				p.skipWS()
			}
			base = Alt{items}
		case ',':
			items := []Regex{first}
			for p.peek() == ',' {
				p.pos++
				it, err := p.cp()
				if err != nil {
					return nil, err
				}
				items = append(items, it)
				p.skipWS()
			}
			base = Seq{items}
		default:
			base = first
		}
		if err := p.expect(')'); err != nil {
			return nil, err
		}
	} else {
		n, err := p.name()
		if err != nil {
			return nil, err
		}
		base = Ref{Name(n)}
	}
	switch p.peek() {
	case '?':
		p.pos++
		return Opt{base}, nil
	case '*':
		p.pos++
		return Star{base}, nil
	case '+':
		p.pos++
		return Plus{base}, nil
	}
	return base, nil
}

// attlistDecl parses the remainder of an <!ATTLIST …> declaration.
func (p *parser) attlistDecl() (string, []AttDef, error) {
	tag, err := p.name()
	if err != nil {
		return "", nil, err
	}
	var atts []AttDef
	for {
		p.skipWS()
		if p.peek() == '>' {
			p.pos++
			return tag, atts, nil
		}
		attr, err := p.name()
		if err != nil {
			return "", nil, err
		}
		a := AttDef{Attr: attr}
		p.skipWS()
		if p.peek() == '(' { // enumeration
			p.pos++
			a.Type = "ENUM"
			for {
				v, err := p.name()
				if err != nil {
					return "", nil, err
				}
				a.Enum = append(a.Enum, v)
				p.skipWS()
				if p.peek() == '|' {
					p.pos++
					continue
				}
				break
			}
			if err := p.expect(')'); err != nil {
				return "", nil, err
			}
		} else {
			t, err := p.name()
			if err != nil {
				return "", nil, err
			}
			a.Type = t
		}
		p.skipWS()
		switch {
		case strings.HasPrefix(p.src[p.pos:], "#REQUIRED"):
			p.pos += len("#REQUIRED")
			a.Required = true
		case strings.HasPrefix(p.src[p.pos:], "#IMPLIED"):
			p.pos += len("#IMPLIED")
		case strings.HasPrefix(p.src[p.pos:], "#FIXED"):
			p.pos += len("#FIXED")
			v, err := p.literal()
			if err != nil {
				return "", nil, err
			}
			a.Fixed, a.Default, a.HasDefault = v, v, true
		default:
			v, err := p.literal()
			if err != nil {
				return "", nil, err
			}
			a.Default, a.HasDefault = v, true
		}
		atts = append(atts, a)
	}
}

func (p *parser) literal() (string, error) {
	p.skipWS()
	if p.eof() || (p.src[p.pos] != '"' && p.src[p.pos] != '\'') {
		return "", fmt.Errorf("dtd: expected quoted literal at offset %d", p.pos)
	}
	q := p.src[p.pos]
	p.pos++
	start := p.pos
	for !p.eof() && p.src[p.pos] != q {
		p.pos++
	}
	if p.eof() {
		return "", fmt.Errorf("dtd: unterminated literal")
	}
	v := p.src[start:p.pos]
	p.pos++
	return v, nil
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

func isNameChar(c byte) bool {
	return c == '_' || c == '-' || c == '.' || c == ':' || c == '#' ||
		c >= '0' && c <= '9' || unicode.IsLetter(rune(c))
}

func snippet(s string, pos int) string {
	end := pos + 20
	if end > len(s) {
		end = len(s)
	}
	if pos > len(s) {
		pos = len(s)
	}
	return s[pos:end]
}
