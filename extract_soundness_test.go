package xmlproj

import (
	"bytes"
	"testing"

	"xmlproj/internal/xmark"
)

// TestPrunedAnswersOnXMark runs what xqrun -prune runs — compile, infer,
// prune into the table and evaluate — on XMark (factor 0.01, seed 42),
// and holds each answer to the one on the whole document (Thm. 4.5). Each
// query once answered differently after pruning: a variable inside a
// nested predicate lost its data needs, a call of no argument lost the
// context's text, and a returned element lost its descendants'
// attributes.
func TestPrunedAnswersOnXMark(t *testing.T) {
	d, err := ParseDTDString(xmark.DTDSource, "site")
	if err != nil {
		t.Fatal(err)
	}
	input := []byte(xmark.NewGenerator(0.01, 42).Document().XML())
	whole, err := ParseXMLBytes(input)
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range []string{
		`for $p in /site/people/person return /site/closed_auctions/closed_auction[buyer/@person = $p/@id]/price/text()`,
		`count(/site/people/person/profile[normalize-space()])`,
		`for $a in /site/closed_auctions/closed_auction return $a`,
	} {
		q, err := Compile(src)
		if err != nil {
			t.Fatal(err)
		}
		p, err := d.Infer(Materialized, q)
		if err != nil {
			t.Fatal(err)
		}
		pruned, _, err := p.LoadProjected(bytes.NewReader(input), StreamOptions{})
		if err != nil {
			t.Fatal(err)
		}
		want, err := q.Evaluate(whole)
		if err != nil {
			t.Fatal(err)
		}
		got, err := q.Evaluate(pruned)
		if err != nil {
			t.Fatal(err)
		}
		if got.Count != want.Count || got.Serialized != want.Serialized {
			t.Errorf("%s: %d items after pruning, %d on the whole document; the answers differ: %v", src, got.Count, want.Count, got.Serialized != want.Serialized)
		}
	}
}
