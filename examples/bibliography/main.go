// Bibliography: the paper's running example (§3). The query descends to
// author text, filters on the value "Dante", and climbs back up with the
// ancestor axis — the kind of backward navigation path-based pruners
// cannot analyse at all.
package main

import (
	"fmt"
	"log"
	"strings"

	"xmlproj"
)

const bibDTD = `
<!ELEMENT bib (book*)>
<!ELEMENT book (title, author+, year?, publisher?)>
<!ELEMENT title (#PCDATA)>
<!ELEMENT author (#PCDATA)>
<!ELEMENT year (#PCDATA)>
<!ELEMENT publisher (#PCDATA)>
`

const bibDoc = `<bib>
  <book><title>Commedia</title><author>Dante</author><year>1313</year></book>
  <book><title>Decameron</title><author>Boccaccio</author><year>1353</year><publisher>Mondadori</publisher></book>
  <book><title>Canzoniere</title><author>Petrarca</author><author>Dante</author></book>
</bib>`

func main() {
	dtd, err := xmlproj.ParseDTDString(bibDTD, "bib")
	if err != nil {
		log.Fatal(err)
	}
	doc, err := xmlproj.ParseXMLString(bibDoc)
	if err != nil {
		log.Fatal(err)
	}
	if err := dtd.Validate(strings.NewReader(bibDoc)); err != nil {
		log.Fatal(err)
	}
	// The DTD is in the class for which the analysis is complete.
	fmt.Printf("DTD: *-guarded=%v non-recursive=%v parent-unambiguous=%v\n",
		dtd.IsStarGuarded(), !dtd.IsRecursive(), dtd.IsParentUnambiguous())

	// The paper's query Q: titles of books authored by Dante.
	q, err := xmlproj.CompileXPath(
		`/descendant::author/child::text()[self::node() = "Dante"]/ancestor::book/child::title`)
	if err != nil {
		log.Fatal(err)
	}
	p, err := dtd.Infer(xmlproj.Materialized, q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("projector:", p)
	// year, publisher and their text are gone; author text is kept
	// because the predicate compares against it.
	for _, name := range []string{"year", "publisher", "author#text"} {
		fmt.Printf("  keeps %-12s %v\n", name+":", p.Has(name))
	}

	pruned, _, err := p.LoadProjected(strings.NewReader(bibDoc), xmlproj.StreamOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("pruned document:", pruned.XML())

	before, _ := q.Evaluate(doc)
	after, err := q.Evaluate(pruned)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("titles on original:", before.Serialized)
	fmt.Println("titles on pruned:  ", after.Serialized)
	if before.Serialized != after.Serialized {
		log.Fatal("soundness violated?!")
	}
}
