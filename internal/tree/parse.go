package tree

import (
	"fmt"
	"io"

	"xmlproj/internal/scan"
)

// Parse reads r to the end and parses the bytes: the tree holds the
// whole document anyway, and the tokeniser runs fastest over resident
// input. Comments, processing instructions and the document type
// declaration are skipped (the paper's data model has only element and
// text nodes), namespace prefixes and declarations are dropped, and
// character data is kept as scan.Handler.Text joins it: chunk by chunk,
// a chunk of nothing but whitespace dropped wherever it stands.
func Parse(r io.Reader) (*Document, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("tree: parse: %w", err)
	}
	return ParseBytes(data)
}

// ParseString parses an XML document held in a string.
func ParseString(s string) (*Document, error) {
	return ParseBytes([]byte(s))
}

// ParseBytes parses an XML document held in a byte slice: scan.Walk with
// a Builder sized from len(b) as its handler. The tree keeps no reference
// to b.
func ParseBytes(b []byte) (*Document, error) {
	bl := NewBuilder(len(b))
	if err := scan.Walk(b, bl); err != nil {
		return nil, fmt.Errorf("tree: parse: %w", err)
	}
	return bl.Document(), nil
}
