package prune

import (
	"bufio"
	"encoding/xml"
	"fmt"
	"io"
	"strings"
	"unicode"
	"unicode/utf8"

	"xmlproj/internal/dtd"
)

// The oracle: the encoding/xml pruner the byte-level scanner replaced,
// kept out of the build as the second presentation of §6's pruner. It
// shares nothing with internal/scan — its tokens come from encoding/xml,
// ℑ is a concatenated name (dtd.TextName, dtd.AttrName) looked up in the
// NameSet, content models are walked on the map-based DFA by name, and
// output is escaped by a strings.Replacer — so agreement with the
// scanner in verdict, bytes and stats (differential_test.go,
// FuzzStreamDifferential) is agreement between two implementations.
// BenchmarkStreamPrune/decoder keeps its speed on record.

// oracleStream prunes src to dst with the oracle, returning what Stream
// returns: stats with BytesOut, and errors under the "prune: " prefix.
func oracleStream(dst io.Writer, src io.Reader, d *dtd.DTD, pi dtd.NameSet, validate bool) (Stats, error) {
	written := &countingWriter{w: dst}
	bw := bufio.NewWriter(written)
	st, err := decode(bw, src, d, pi, validate)
	if err == nil {
		err = bw.Flush()
	}
	st.BytesOut = written.n
	if err != nil {
		err = fmt.Errorf("prune: %w", err)
	}
	return st, err
}

// oracleString is oracleStream over strings.
func oracleString(src string, d *dtd.DTD, pi dtd.NameSet, validate bool) (string, Stats, error) {
	var sb strings.Builder
	st, err := oracleStream(&sb, strings.NewReader(src), d, pi, validate)
	return sb.String(), st, err
}

// The canonical escaping of character data and of a double-quoted
// attribute value: &, < and > become entities, and " in a value.
var (
	escapeText = strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;")
	escapeAttr = strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")
)

// decode is the encoding/xml pruner. It does not flush bw.
func decode(bw *bufio.Writer, src io.Reader, d *dtd.DTD, pi dtd.NameSet, validate bool) (Stats, error) {
	var stats Stats
	dec := xml.NewDecoder(src)

	type frame struct {
		name  dtd.Name
		def   *dtd.Def
		state int // content-model DFA state (when validating)
	}
	var stack []frame
	sawRoot := false
	// open is true while the most recent start tag is still unclosed in
	// the output (no '>' written yet), enabling <e/> self-closing output.
	open := false
	closeOpen := func() {
		if open {
			bw.WriteString(">")
			open = false
		}
	}

	// text accumulates the current logical text node: consecutive
	// character-data chunks (split by the decoder at entity and CDATA
	// boundaries) coalesced, with whitespace-only chunks dropped, exactly
	// as the tree parser merges them. The run is counted, validated and
	// written once, when the next tag ends it.
	var text strings.Builder
	flushText := func() error {
		if text.Len() == 0 {
			return nil
		}
		s := text.String()
		text.Reset()
		stats.TextIn++
		top := &stack[len(stack)-1]
		tn := dtd.TextName(top.name)
		if validate {
			next := top.def.Automaton().Next(top.state, tn)
			if next < 0 {
				return fmt.Errorf("text content not allowed in %s", top.name)
			}
			top.state = next
		}
		if pi.Has(tn) {
			closeOpen()
			escapeText.WriteString(bw, s)
			stats.TextOut++
		}
		return nil
	}

	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return stats, err
		}
		switch t := tok.(type) {
		case xml.StartElement:
			if err := flushText(); err != nil {
				return stats, err
			}
			stats.ElementsIn++
			sawRoot = true
			tag := t.Name.Local
			name, ok := d.ElementName(tag)
			if !ok {
				return stats, fmt.Errorf("element %q not declared in DTD", tag)
			}
			if len(stack) == 0 && validate && name != d.Root {
				return stats, fmt.Errorf("root element is %s, DTD requires %s", name, d.Root)
			}
			if validate && len(stack) > 0 {
				top := &stack[len(stack)-1]
				top.state = top.def.Automaton().Next(top.state, name)
				if top.state < 0 {
					return stats, fmt.Errorf("element %s not allowed here in content of %s", name, top.name)
				}
			}
			if !pi.Has(name) {
				// Constant memory: the decoder discards the whole subtree
				// without materialising it, counting what it scans past.
				// The skipped subtree still counts as validated only
				// shallowly; the paper's pruner behaves the same way
				// (discarded data is not needed, hence not checked deeply).
				if err := skipSubtree(dec, &stats, validate); err != nil {
					return stats, err
				}
				continue
			}
			def := d.Def(name)
			closeOpen()
			if err := writeStart(bw, tag, t.Attr, def, pi, validate); err != nil {
				return stats, err
			}
			open = true
			stack = append(stack, frame{name: name, def: def, state: def.Automaton().Start()})
			if len(stack) > stats.MaxDepth {
				stats.MaxDepth = len(stack)
			}
		case xml.EndElement:
			if len(stack) == 0 {
				return stats, fmt.Errorf("unbalanced end element %s", t.Name.Local)
			}
			if err := flushText(); err != nil {
				return stats, err
			}
			top := stack[len(stack)-1]
			if validate && !top.def.Automaton().Accepting(top.state) {
				return stats, fmt.Errorf("content of %s is incomplete (model %s)", top.name, top.def.Content)
			}
			stack = stack[:len(stack)-1]
			if open {
				bw.WriteString("/>")
				open = false
			} else {
				bw.WriteString("</")
				bw.WriteString(t.Name.Local)
				bw.WriteString(">")
			}
			stats.ElementsOut++
		case xml.CharData:
			if len(stack) == 0 {
				continue
			}
			if allSpace(t) {
				continue
			}
			text.Write(t)
		case xml.Comment, xml.ProcInst, xml.Directive:
			// Outside the data model; dropped (the paper's pruner keeps
			// only elements, attributes and text). The surrounding
			// character data stays one logical text node, as in the tree
			// parser, so the run is not flushed here.
		}
	}
	if len(stack) != 0 {
		return stats, fmt.Errorf("unterminated element %s", stack[len(stack)-1].name)
	}
	if !sawRoot {
		return stats, fmt.Errorf("no root element in input")
	}
	return stats, nil
}

// skipSubtree consumes the remainder of the current element — the
// equivalent of xml.Decoder.Skip — while counting the elements and,
// when validating, the logical text nodes scanned past (Stats defines
// TextIn and TextSkipped that way for every engine). Nothing is
// materialised; memory stays constant.
func skipSubtree(dec *xml.Decoder, stats *Stats, countText bool) error {
	depth := 1
	// pending is true while a non-whitespace text run is open; runs merge
	// across comments and PIs, matching the main loop and the tree parser.
	pending := false
	flush := func() {
		if pending && countText {
			stats.TextIn++
			stats.TextSkipped++
		}
		pending = false
	}
	for depth > 0 {
		tok, err := dec.Token()
		if err != nil {
			return err
		}
		switch t := tok.(type) {
		case xml.StartElement:
			flush()
			stats.ElementsIn++
			stats.ElementsSkipped++
			depth++
		case xml.EndElement:
			flush()
			depth--
		case xml.CharData:
			if !allSpace(t) {
				pending = true
			}
		}
	}
	return nil
}

func writeStart(bw *bufio.Writer, tag string, attrs []xml.Attr, def *dtd.Def, pi dtd.NameSet, validate bool) error {
	bw.WriteString("<")
	bw.WriteString(tag)
	for _, a := range attrs {
		if a.Name.Space == "xmlns" || a.Name.Local == "xmlns" {
			continue
		}
		if validate {
			ad := def.AttDef(a.Name.Local)
			if ad == nil {
				return fmt.Errorf("undeclared attribute %q on %s", a.Name.Local, tag)
			}
			if len(ad.Enum) > 0 && !inList(ad.Enum, a.Value) {
				return fmt.Errorf("attribute %q on %s has value %q outside its enumeration", a.Name.Local, tag, a.Value)
			}
			if ad.Fixed != "" && a.Value != ad.Fixed {
				return fmt.Errorf("attribute %q on %s must have fixed value %q", a.Name.Local, tag, ad.Fixed)
			}
		}
		if !pi.Has(dtd.AttrName(def.Name, a.Name.Local)) {
			continue
		}
		bw.WriteString(" ")
		bw.WriteString(a.Name.Local)
		bw.WriteString("=\"")
		escapeAttr.WriteString(bw, a.Value)
		bw.WriteString("\"")
	}
	if validate {
		for i := range def.Atts {
			ad := &def.Atts[i]
			if !ad.Required {
				continue
			}
			if !hasAttr(attrs, ad.Attr) {
				return fmt.Errorf("missing required attribute %q on %s", ad.Attr, tag)
			}
		}
	}
	return nil
}

// allSpace reports whether the chunk is whitespace-only, without the
// string conversion that strings.TrimSpace(string(t)) would allocate on
// every character-data token.
func allSpace(b []byte) bool {
	i := 0
	for i < len(b) && b[i] < utf8.RuneSelf {
		switch b[i] {
		case ' ', '\t', '\n', '\r', '\v', '\f':
			i++
		default:
			return false
		}
	}
	for i < len(b) {
		r, size := utf8.DecodeRune(b[i:])
		if !unicode.IsSpace(r) {
			return false
		}
		i += size
	}
	return true
}

func inList(xs []string, v string) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

func hasAttr(attrs []xml.Attr, name string) bool {
	for _, a := range attrs {
		if a.Name.Local == name {
			return true
		}
	}
	return false
}
