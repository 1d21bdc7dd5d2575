package dtd

import (
	"fmt"
	"io"
	"strings"
	"unicode"
)

// Parse reads DTD declarations from r and builds the local tree grammar.
// rootTag names the document root element; if empty, the first declared
// element is taken as root (the usual convention for standalone DTDs).
//
// Supported declarations: <!ELEMENT …> with EMPTY, ANY, mixed and children
// content; <!ATTLIST …>; comments. Parameter entities and conditional
// sections are not supported (none of the benchmark DTDs use them).
func Parse(r io.Reader, rootTag string) (*DTD, error) {
	src, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("dtd: %w", err)
	}
	return ParseString(string(src), rootTag)
}

// ParseString is Parse over a string.
func ParseString(src, rootTag string) (*DTD, error) {
	p := &parser{src: src}
	d := &DTD{Defs: map[Name]*Def{}, ByTag: map[string]Name{}}
	type pendingAtt struct {
		tag  string
		atts []AttDef
	}
	var pendingAtts []pendingAtt
	var anyTags []string // elements declared ANY, fixed up at the end
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
			tag, content, isAny, mixed, err := p.elementDecl()
			if err != nil {
				return nil, err
			}
			name := Name(tag)
			def := &Def{Name: name, Tag: tag, Content: content}
			if err := d.add(def); err != nil {
				return nil, err
			}
			if isAny {
				anyTags = append(anyTags, tag)
			}
			if mixed {
				tn := TextName(name)
				if err := d.add(&Def{Name: tn, Text: true}); err != nil {
					return nil, err
				}
			}
		case "ATTLIST":
			tag, atts, err := p.attlistDecl()
			if err != nil {
				return nil, err
			}
			pendingAtts = append(pendingAtts, pendingAtt{tag, atts})
		case "ENTITY", "NOTATION":
			// Skipped: scan to the closing '>'.
			if err := p.skipDecl(); err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("dtd: unsupported declaration <!%s at offset %d", kw, p.pos)
		}
	}

	if len(d.order) == 0 {
		return nil, fmt.Errorf("dtd: no element declarations")
	}
	if rootTag == "" {
		d.Root = d.order[0]
	} else {
		n, ok := d.ByTag[rootTag]
		if !ok {
			return nil, fmt.Errorf("dtd: root element %q not declared", rootTag)
		}
		d.Root = n
	}

	// Fix up ANY content: any sequence of declared elements and text.
	for _, tag := range anyTags {
		name := d.ByTag[tag]
		tn := TextName(name)
		if _, ok := d.Defs[tn]; !ok {
			if err := d.add(&Def{Name: tn, Text: true}); err != nil {
				return nil, err
			}
		}
		var alts []Regex
		alts = append(alts, Ref{tn})
		for _, n := range d.order {
			if def := d.Defs[n]; !def.Text {
				alts = append(alts, Ref{n})
			}
		}
		d.Defs[name].Content = Star{Alt{alts}}
	}

	// Attach attribute lists.
	for _, pa := range pendingAtts {
		n, ok := d.ByTag[pa.tag]
		if !ok {
			return nil, fmt.Errorf("dtd: <!ATTLIST %s> for undeclared element", pa.tag)
		}
		def := d.Defs[n]
		for _, a := range pa.atts {
			a.Name = AttrName(n, a.Attr)
			if def.AttDef(a.Attr) != nil {
				continue // XML spec: first declaration wins
			}
			def.Atts = append(def.Atts, a)
		}
	}

	// Check that every referenced name is declared.
	for _, n := range d.order {
		def := d.Defs[n]
		if def.Text {
			continue
		}
		var err error
		walkRefs(def.Content, func(ref Name) {
			if _, ok := d.Defs[ref]; !ok && err == nil {
				err = fmt.Errorf("dtd: element %s references undeclared element %s", n, ref)
			}
		})
		if err != nil {
			return nil, err
		}
	}
	return d, nil
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
// returned regex is over element names; mixed reports whether a #PCDATA
// text name must be created for the element, in which case the parser has
// already inserted Ref(TextName) placeholders.
func (p *parser) elementDecl() (tag string, content Regex, isAny, mixed bool, err error) {
	tag, err = p.name()
	if err != nil {
		return "", nil, false, false, err
	}
	p.skipWS()
	switch {
	case strings.HasPrefix(p.src[p.pos:], "EMPTY"):
		p.pos += len("EMPTY")
		content = Epsilon{}
	case strings.HasPrefix(p.src[p.pos:], "ANY"):
		p.pos += len("ANY")
		content, isAny = Epsilon{}, true
	case p.peek() == '(':
		content, mixed, err = p.contentSpec(Name(tag))
		if err != nil {
			return "", nil, false, false, err
		}
	default:
		return "", nil, false, false, fmt.Errorf("dtd: bad content spec for %s at offset %d", tag, p.pos)
	}
	if err := p.expect('>'); err != nil {
		return "", nil, false, false, err
	}
	return tag, content, isAny, mixed, nil
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
