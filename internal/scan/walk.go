package scan

// The document walk: the tokeniser's view of a whole document as the
// data model's three events, for a consumer that builds something from
// every node instead of pruning. It applies every check the pruner's
// emitting path applies — names, attribute syntax, entities, character
// ranges, comment, PI and directive rules, end tags against start tags —
// plus the document-level ones a loader needs: exactly one root element,
// nothing left open.

import "fmt"

// Attr is one attribute of a start tag, as Walk reports it.
type Attr struct {
	Name  []byte // local part
	Value []byte // decoded
}

// Handler receives the events of Walk, in document order. Every byte
// slice it is handed is valid only until it returns.
type Handler interface {
	// StartElement opens an element. name is the local part of its tag;
	// attrs are its attributes in input order, namespace declarations
	// (xmlns, xmlns:p, p:xmlns) left out.
	StartElement(name []byte, attrs []Attr)
	// Text is one logical text node: the decoded character-data chunks
	// between two tags, joined. A chunk ends at any markup (a comment, a
	// PI, a CDATA boundary), and a chunk that is all Unicode whitespace
	// is dropped before joining, so "a<!--c--> <!--d-->b" is "ab" and a
	// run with no other chunk is no event at all.
	Text(data []byte)
	// EndElement closes the innermost open element.
	EndElement()
}

// Walk tokenises the document in data and reports it to h. Text outside
// the root element is checked and not reported. Walk accepts exactly
// the documents encoding/xml's strict decoder accepts that have one root
// element and leave nothing open; data is not modified, and is not
// subject to MaxTokenSize (the cap bounds a sliding buffer, and there is
// none here).
func Walk(data []byte, h Handler) error {
	w := walker{h: h}
	w.s.ResetBytes(data)
	if err := w.s.checkEncoding(); err != nil {
		return err
	}
	return w.run()
}

type walker struct {
	s Scanner
	h Handler

	open    nameStack // an end tag must spell the innermost name
	sawRoot bool

	// The current text run's kept chunks: the first as view, a slice of
	// the input, when plainChunk took it; in text, view moved there first,
	// once the run needs joining or decoding. One of the two is empty.
	view, text []byte
	pending    bool // the run has at least one kept chunk

	vals  []byte // decoded attribute values of the current start tag
	ends  []int  // ends[i] is where the i-th reported value ends in vals
	attrs []Attr
}

func (w *walker) run() error {
	s := &w.s
	for {
		s.setMark()
		b, ok := s.getc()
		if !ok {
			if !s.atEOF() {
				return s.rerr
			}
			break
		}
		if b != '<' {
			s.ungetc()
			if err := w.chunk(false); err != nil {
				return err
			}
			continue
		}
		kind, err := s.markup()
		if err != nil {
			return err
		}
		switch kind {
		case markupStart:
			err = w.startTag()
		case markupEnd:
			err = w.endTag()
		case markupCDATA:
			err = w.chunk(true)
		}
		if err != nil {
			return err
		}
	}
	if !w.sawRoot {
		return fmt.Errorf("no root element in input")
	}
	if w.open.depth() != 0 {
		return fmt.Errorf("unterminated element %s", w.open.top())
	}
	return nil
}

// chunk reads one character-data chunk into the current text run.
func (w *walker) chunk(cdata bool) error {
	drop := w.open.depth() == 0
	if !cdata {
		if chunk, info, ok := w.s.plainChunk(-1); ok {
			switch {
			case info.ws || drop:
			case !w.pending:
				w.view, w.pending = chunk, true
			default:
				w.text, w.view = append(append(w.text, w.view...), chunk...), nil
			}
			return nil
		}
	}
	// A run held as a view moves into the buffer text appends to.
	w.text, w.view = append(w.text, w.view...), nil
	kept := len(w.text)
	out, info, err := w.s.text(w.text, -1, cdata)
	if err != nil {
		return err
	}
	if info.ws || drop {
		w.text = out[:kept]
		return nil
	}
	w.text, w.pending = out, true
	return nil
}

// flushText reports the text run a tag ends, if it kept anything.
func (w *walker) flushText() {
	if w.pending {
		if w.view != nil {
			w.h.Text(w.view)
		} else {
			w.h.Text(w.text)
		}
		w.text, w.view, w.pending = w.text[:0], nil, false
	}
}

// startTag handles a start or empty-element tag; the mark is at its '<'.
func (w *walker) startTag() error {
	s := &w.s
	name, _, local, err := s.qname("element name after <")
	if err != nil {
		return err
	}
	w.flushText()
	if w.open.depth() == 0 {
		if w.sawRoot {
			return fmt.Errorf("multiple root elements")
		}
		w.sawRoot = true
	}
	w.open.push(name)

	w.vals, w.ends, w.attrs = w.vals[:0], w.ends[:0], w.attrs[:0]
	empty := false
	for {
		s.space()
		b, ok := s.getc()
		if !ok {
			return s.readErr()
		}
		if b == '>' {
			break
		}
		if b == '/' {
			if b, ok = s.getc(); !ok {
				return s.readErr()
			}
			if b != '>' {
				return errSyntax("expected /> in element")
			}
			empty = true
			break
		}
		s.ungetc()
		var prefix, alocal []byte
		mark := len(w.vals)
		prefix, alocal, w.vals, _, err = s.attr(w.vals)
		if err != nil {
			return err
		}
		if isXMLNSAttr(prefix, alocal) {
			w.vals = w.vals[:mark]
			continue
		}
		// The names are views of the input, which stands still under
		// ResetBytes; vals moves when it grows, so the values are sliced
		// once the tag is read.
		w.attrs = append(w.attrs, Attr{Name: alocal})
		w.ends = append(w.ends, len(w.vals))
	}
	off := 0
	for i, end := range w.ends {
		w.attrs[i].Value = w.vals[off:end]
		off = end
	}
	w.h.StartElement(local, w.attrs)
	if empty {
		w.h.EndElement()
		w.open.pop()
	}
	return nil
}

// endTag handles an end tag; "</" is consumed.
func (w *walker) endTag() error {
	s := &w.s
	if w.open.depth() == 0 || !closes(s, w.open.top()) {
		name, _, _, err := s.qname("element name after </")
		if err != nil {
			return err
		}
		s.space()
		b, ok := s.getc()
		if !ok {
			return s.readErr()
		}
		if b != '>' {
			return errSyntax("invalid characters between </" + string(name) + " and >")
		}
		if w.open.depth() == 0 {
			return fmt.Errorf("unbalanced end element %s", name)
		}
		if open := w.open.top(); string(name) != string(open) {
			return fmt.Errorf("element <%s> closed by </%s>", open, name)
		}
	}
	w.flushText()
	w.h.EndElement()
	w.open.pop()
	return nil
}
