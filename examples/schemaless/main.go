// Schemaless: pruning without a DTD (the paper's §7 extension). A
// dataguide — a structural summary in grammar form — is inferred from the
// document itself; the projector analysis then runs against it unchanged.
package main

import (
	"fmt"
	"log"
	"strings"

	"xmlproj"
)

// A feed-like document that ships with no schema.
const feed = `<feed>
  <meta><generator>handrolled</generator><fetched>2026-07-06</fetched></meta>
  <entry lang="en">
    <title>On projection</title>
    <body>Main memory is <em>finite</em>, documents are not.</body>
    <comments><c by="ada">nice</c><c by="bob">agreed</c></comments>
  </entry>
  <entry lang="it">
    <title>Sulla proiezione</title>
    <body>La memoria e finita.</body>
  </entry>
  <telemetry><blob>ZmlsbGVyIGJ5dGVzIG5vYm9keSBxdWVyaWVz</blob><blob>bW9yZSBmaWxsZXI=</blob></telemetry>
</feed>`

func main() {
	doc, err := xmlproj.ParseXMLString(feed)
	if err != nil {
		log.Fatal(err)
	}
	// No DTD anywhere: summarise the document itself.
	dtd, err := xmlproj.InferDTD(doc)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("inferred dataguide:")
	fmt.Print(dtd.Grammar())

	q, err := xmlproj.CompileXPath(`//entry[@lang = "en"]/title`)
	if err != nil {
		log.Fatal(err)
	}
	p, err := dtd.Infer(xmlproj.Materialized, q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nprojector:", p)

	pruned, _, err := p.LoadProjected(strings.NewReader(feed), xmlproj.StreamOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("document: %d -> %d bytes (meta, bodies, comments and telemetry gone)\n",
		doc.Size(), pruned.Size())
	fmt.Println("pruned:", pruned.XML())

	before, _ := q.Evaluate(doc)
	after, err := q.Evaluate(pruned)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("result on original:", before.Serialized)
	fmt.Println("result on pruned:  ", after.Serialized)
	if before.Serialized != after.Serialized {
		log.Fatal("soundness violated?!")
	}
}
