package scan

// The document walk: the tokeniser's view of a whole document as the
// data model's three events, for a consumer that builds something from
// every node instead of pruning. It applies every check the pruner's
// emitting path applies — names, attribute syntax, entities, character
// ranges, comment, PI and directive rules, end tags against start tags —
// plus the document-level ones a loader needs: exactly one root element,
// no text outside it, nothing left open. The pruner applies the same
// three, so a pruned document is one the walk accepts.

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

// Walk tokenises the document in data and reports it to h. Outside the
// root element only whitespace may stand between the comments and
// processing instructions, and it is not reported. Walk accepts exactly
// the documents encoding/xml's strict decoder accepts that have one root
// element, no other text outside it and nothing left open; data is not
// modified, and is not subject to MaxTokenSize (the cap bounds a sliding
// buffer, and there is none here).
func Walk(data []byte, h Handler) error { return walk(data, h, false) }

// walk is Walk; general sends every start tag the long way, past the tag
// kernel, which is how the kernel is held to it (walk_test.go).
func walk(data []byte, h Handler, general bool) error {
	w := walker{h: h, general: general}
	w.s.ResetBytes(data)
	if err := w.s.checkEncoding(); err != nil {
		return err
	}
	return w.run()
}

type walker struct {
	s       Scanner
	h       Handler
	general bool // no tag kernel

	// open is the names of the open elements, innermost last, as views of
	// the input, which stands still under ResetBytes: an end tag must spell
	// the innermost one.
	open    [][]byte
	sawRoot bool

	// The current text run's kept chunks: the first as view, a slice of
	// the input, when plainChunk took it; in text, view moved there first,
	// once the run needs joining or decoding. One of the two is empty.
	view, text []byte
	pending    bool // the run has at least one kept chunk

	attrs []Attr   // the current start tag's, as reported
	tag   tagAttrs // what the long way read of it
}

// run dispatches from each '<' or text byte. The input is resident, so a
// token that ends inside the buffer is one that ends before EOF: a plain
// end tag (closes), a plain start tag (plainTag) and a text chunk
// (plainChunk) are read straight from the bytes, and whatever the kernels
// refuse goes through markup, then qname and longTag or endTag, from the
// same byte. The input stands still, so the views of a tag's name taken
// before its attributes are read stay valid.
func (w *walker) run() error {
	s := &w.s
	for s.pos < s.end {
		s.setMark()
		if s.buf[s.pos] != '<' {
			if err := w.chunk(false); err != nil {
				return err
			}
			continue
		}
		s.pos++
		if s.pos < s.end && s.buf[s.pos] == '/' {
			s.pos++
			if err := w.endTag(); err != nil {
				return err
			}
			continue
		}
		// A second root goes the long way, which reports it.
		if !w.general && (len(w.open) > 0 || !w.sawRoot) {
			if name, attrs, empty, _, ok := s.plainTag(w.attrs[:0], false); ok {
				w.attrs = attrs
				w.element(name, name, attrs, empty)
				continue
			}
		}
		kind, err := s.markup()
		if err != nil {
			return err
		}
		switch kind {
		case markupStart:
			name, _, local, err := s.qname("element name after <")
			if err != nil {
				return err
			}
			if len(w.open) == 0 && w.sawRoot {
				return fmt.Errorf("multiple root elements")
			}
			empty, err := s.longTag(&w.tag, true)
			if err != nil {
				return err
			}
			w.attrs = w.attrs[:0]
			for _, a := range w.tag.attrs {
				if !isXMLNSAttr(a.prefix, a.Name) {
					w.attrs = append(w.attrs, a.Attr)
				}
			}
			w.element(name, local, w.attrs, empty)
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
		return ErrNoRoot
	}
	if len(w.open) != 0 {
		return fmt.Errorf("unterminated element %s", w.open[len(w.open)-1])
	}
	return nil
}

// chunk reads one character-data chunk into the current text run.
func (w *walker) chunk(cdata bool) error {
	outside := len(w.open) == 0
	if !cdata {
		if chunk, info, ok := w.s.plainChunk(-1); ok {
			switch {
			case info.ws:
			case outside:
				return errOutsideRoot
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
	if info.ws {
		w.text = out[:kept]
		return nil
	}
	if outside {
		return errOutsideRoot
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

// element reports a start tag read whole, behind the text run it ends:
// name as written, for its end tag to spell, and its local part.
func (w *walker) element(name, local []byte, attrs []Attr, empty bool) {
	w.flushText()
	w.sawRoot = true
	w.h.StartElement(local, attrs)
	if empty {
		w.h.EndElement()
	} else {
		w.open = append(w.open, name)
	}
}

// endTag handles an end tag; "</" is consumed.
func (w *walker) endTag() error {
	s := &w.s
	if len(w.open) == 0 || !closes(s, w.open[len(w.open)-1]) {
		name, _, _, _, err := s.endName()
		if err != nil {
			return err
		}
		if len(w.open) == 0 {
			return fmt.Errorf("unbalanced end element %s", name)
		}
		if open := w.open[len(w.open)-1]; string(name) != string(open) {
			return fmt.Errorf("element <%s> closed by </%s>", open, name)
		}
	}
	w.flushText()
	w.h.EndElement()
	w.open = w.open[:len(w.open)-1]
	return nil
}
