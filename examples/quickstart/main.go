// Quickstart: infer a type projector for one query, prune a document
// while loading it, and check that the query result is unchanged.
package main

import (
	"fmt"
	"log"
	"strings"

	"xmlproj"
)

const catalogDTD = `
<!ELEMENT catalog (product*)>
<!ELEMENT product (name, price, stock?, review*)>
<!ATTLIST product sku CDATA #REQUIRED>
<!ELEMENT name (#PCDATA)>
<!ELEMENT price (#PCDATA)>
<!ELEMENT stock (#PCDATA)>
<!ELEMENT review (#PCDATA)>
`

const catalogDoc = `<catalog>
  <product sku="A1"><name>Compass</name><price>19</price><stock>4</stock><review>points north</review></product>
  <product sku="B2"><name>Lantern</name><price>35</price><review>bright</review><review>heavy</review></product>
  <product sku="C3"><name>Anchor</name><price>120</price><stock>1</stock></product>
</catalog>`

func main() {
	dtd, err := xmlproj.ParseDTDString(catalogDTD, "catalog")
	if err != nil {
		log.Fatal(err)
	}
	doc, err := xmlproj.ParseXMLString(catalogDoc)
	if err != nil {
		log.Fatal(err)
	}
	if err := dtd.Validate(strings.NewReader(catalogDoc)); err != nil {
		log.Fatal(err)
	}

	// Products cheaper than 40, by name. The projector will discover that
	// stock and review subtrees are never needed.
	query, err := xmlproj.CompileXPath(`//product[price < 40]/name`)
	if err != nil {
		log.Fatal(err)
	}
	projector, err := dtd.Infer(xmlproj.Materialized, query)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("data needs:", query.DataNeeds())
	fmt.Println("projector:", projector)

	pruned, _, err := projector.LoadProjected(strings.NewReader(catalogDoc), xmlproj.StreamOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("document: %d -> %d bytes\n", doc.Size(), pruned.Size())
	fmt.Println("pruned:", pruned.XML())

	before, err := query.Evaluate(doc)
	if err != nil {
		log.Fatal(err)
	}
	after, err := query.Evaluate(pruned)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("result on original:", before.Serialized)
	fmt.Println("result on pruned:  ", after.Serialized)
	if before.Serialized != after.Serialized {
		log.Fatal("soundness violated?!")
	}
}
