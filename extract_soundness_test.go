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
// attributes. The next five each give another answer when one line of
// Fig. 3's extraction is dropped: order-by keys, a quantifier's paths, a
// sequence function's F(f, i) step, a filter expression's predicates. An
// answer that is empty on the whole document would hide such a loss, so
// it fails the test.
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
		`for $p in /site/people/person order by $p/name return $p/@id`,
		`for $p in /site/people/person where some $w in $p/watches/watch satisfies true() return $p/@id`,
		`for $p in /site/people/person return string-join($p/name, ",")`,
		`(/site/people/person)[emailaddress]/name`,
		`for $p in /site/people/person return $p[homepage]/name`,
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
		if want.Count == 0 || want.Serialized == "" {
			t.Errorf("%s: empty on the whole document, so pruning cannot change it", src)
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
