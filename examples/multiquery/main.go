// Multiquery: one projector for a bunch of queries (§5). Projectors are
// closed under union, so a workload of queries over the same document can
// share a single pruned copy — something the one-query-at-a-time pruner
// of Bressan et al. cannot do.
package main

import (
	"fmt"
	"log"
	"strings"

	"xmlproj"
)

const ordersDTD = `
<!ELEMENT orders (order*)>
<!ELEMENT order (customer, lines, shipping?, note*)>
<!ATTLIST order id CDATA #REQUIRED status (open|paid|shipped) "open">
<!ELEMENT customer (name, email)>
<!ELEMENT name (#PCDATA)>
<!ELEMENT email (#PCDATA)>
<!ELEMENT lines (line+)>
<!ELEMENT line (product, qty, unitprice)>
<!ELEMENT product (#PCDATA)>
<!ELEMENT qty (#PCDATA)>
<!ELEMENT unitprice (#PCDATA)>
<!ELEMENT shipping (carrier, cost)>
<!ELEMENT carrier (#PCDATA)>
<!ELEMENT cost (#PCDATA)>
<!ELEMENT note (#PCDATA)>
`

const ordersDoc = `<orders>
  <order id="1" status="paid">
    <customer><name>Ada</name><email>ada@example.com</email></customer>
    <lines><line><product>compass</product><qty>2</qty><unitprice>19</unitprice></line></lines>
    <shipping><carrier>albatross</carrier><cost>7</cost></shipping>
    <note>gift wrap</note>
  </order>
  <order id="2">
    <customer><name>Bob</name><email>bob@example.com</email></customer>
    <lines>
      <line><product>lantern</product><qty>1</qty><unitprice>35</unitprice></line>
      <line><product>rope</product><qty>3</qty><unitprice>4</unitprice></line>
    </lines>
  </order>
</orders>`

func main() {
	dtd, err := xmlproj.ParseDTDString(ordersDTD, "orders")
	if err != nil {
		log.Fatal(err)
	}
	doc, err := xmlproj.ParseXMLString(ordersDoc)
	if err != nil {
		log.Fatal(err)
	}
	if err := dtd.Validate(strings.NewReader(ordersDoc)); err != nil {
		log.Fatal(err)
	}

	// A reporting workload: three queries, two languages.
	sources := []string{
		`//order[@status = "paid"]/customer/name`,
		`for $o in /orders/order return <total id="{$o/@id}">{ sum($o/lines/line/unitprice) }</total>`,
		`count(//line)`,
	}
	queries := make([]*xmlproj.Query, len(sources))
	for i, src := range sources {
		q, err := xmlproj.Compile(src)
		if err != nil {
			log.Fatalf("%s: %v", src, err)
		}
		queries[i] = q
	}

	// One union projector serves all three queries.
	p, err := dtd.Infer(xmlproj.Materialized, queries...)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("union projector keeps %.0f%% of the schema: %s\n", 100*p.KeepRatio(), p)

	pruned, _, err := p.LoadProjected(strings.NewReader(ordersDoc), xmlproj.StreamOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("document: %d -> %d bytes (shipping and notes are gone)\n\n", doc.Size(), pruned.Size())

	mismatches := 0
	for _, q := range queries {
		before, err := q.Evaluate(doc)
		if err != nil {
			log.Fatal(err)
		}
		after, err := q.Evaluate(pruned)
		if err != nil {
			log.Fatal(err)
		}
		status := "OK"
		if before.Serialized != after.Serialized {
			status = "MISMATCH"
			mismatches++
		}
		fmt.Printf("[%s] %s\n  -> %s\n", status, q.Source(), after.Serialized)
	}
	if mismatches > 0 {
		log.Fatal("soundness violated?!")
	}
}
