package scan_test

// The pruner's tag kernel held to the long way: every document is pruned
// once with plain start tags read by the kernel and once with every start
// tag read the long way, and the two must be indistinguishable — output,
// Stats and error text — from every source into every sink, at both
// levels of checking.

import (
	"bufio"
	"bytes"
	"fmt"
	"strings"
	"testing"
	"testing/iotest"

	"xmlproj/internal/dtd"
	"xmlproj/internal/scan"
	"xmlproj/internal/scan/scantest"
	"xmlproj/internal/testkit"
	"xmlproj/internal/xmark"
)

// kernelGrammar declares the elements and attributes the tags of
// scantest.KernelTags spell, so that their attributes are kept, dropped
// and validated; the other names in there are undeclared.
const kernelGrammar = `<!ELEMENT r (#PCDATA | a | a.b-c_9)*>
<!ELEMENT a (#PCDATA | a)*>
<!ELEMENT a.b-c_9 (#PCDATA)>
<!ATTLIST r x CDATA #IMPLIED>
<!ATTLIST a x CDATA #IMPLIED y CDATA #IMPLIED z (1 | 2) #IMPLIED
	a CDATA #IMPLIED b CDATA #IMPLIED c CDATA #IMPLIED d CDATA #IMPLIED
	e CDATA #IMPLIED f CDATA #IMPLIED g CDATA #IMPLIED h CDATA #IMPLIED
	lang CDATA #IMPLIED>
<!ATTLIST a.b-c_9 d.e CDATA #REQUIRED>`

// TestPruneTagKernelMatchesGeneralPath: on every scantest.KernelDocs
// document with the kernel grammar's root, low, mid and full projectors,
// on a grammar that requires xmlns, and on an XMark document with the
// benchmark's projectors, the pruner with its tag kernel is the pruner
// without.
func TestPruneTagKernelMatchesGeneralPath(t *testing.T) {
	d := dtd.MustParseString(kernelGrammar, "r")
	kpis := []dtd.NameSet{
		dtd.NewNameSet("r"),
		dtd.NewNameSet("r", "a"),
		dtd.NewNameSet("r", "r@x", "a", "a@x", "a@z", "a@lang", "a#text", "a.b-c_9", "a.b-c_9@d.e"),
		dtd.NewNameSet(testkit.Names(d)...),
	}
	for _, doc := range scantest.KernelDocs() {
		kernelAgrees(t, []byte(doc), d, kpis)
	}
	// A grammar may declare xmlns, which the output drops, #REQUIRED: the
	// kernel hands the declaration to the pruner for it to be seen.
	nd := dtd.MustParseString(`<!ELEMENT r (a*)> <!ELEMENT a EMPTY>
<!ATTLIST a xmlns CDATA #REQUIRED x CDATA #IMPLIED>`, "r")
	for _, doc := range []string{`<r><a xmlns="u" x="1"/></r>`, `<r><a x='1' xmlns="u"/></r>`, `<r><a x="1"/></r>`} {
		kernelAgrees(t, []byte(doc), nd, []dtd.NameSet{dtd.NewNameSet("r", "a", "a@x"), dtd.NewNameSet(testkit.Names(nd)...)})
	}
	xd := xmark.DTD()
	var xdoc bytes.Buffer
	if err := xmark.NewGenerator(0.002, 7).Document().WriteXML(&xdoc); err != nil {
		t.Fatal(err)
	}
	kernelAgrees(t, xdoc.Bytes(), xd, []dtd.NameSet{
		dtd.NewNameSet("site"),
		dtd.NewNameSet("site", "regions", "africa", "item", "item@id", "location", "location#text"),
		dtd.NewNameSet("site", "people", "person", "person@id", "name", "name#text",
			"emailaddress", "emailaddress#text", "open_auctions", "open_auction", "open_auction@id",
			"initial", "initial#text"),
		dtd.NewNameSet(testkit.Names(xd)...),
	})
}

// kernelAgrees prunes doc with each projector of pis — from bytes and
// from a one-byte reader, into a writer, spans and a handler, with and
// without Validate — kernel on and off.
func kernelAgrees(t *testing.T, doc []byte, d *dtd.DTD, pis []dtd.NameSet) {
	t.Helper()
	projs := make([]*dtd.Projection, len(pis))
	for j, pi := range pis {
		projs[j] = d.CompileProjection(pi)
	}
	for _, validate := range []bool{false, true} {
		opts := scan.Options{Validate: validate}
		for j, p := range projs {
			for _, feed := range []string{"bytes", "one-byte reader"} {
				for _, sink := range []string{"writer", "spans", "table"} {
					if sink == "spans" && feed != "bytes" {
						continue // a span sink needs resident input
					}
					on := pruneInto(doc, d, p, opts, feed, sink)
					if off := pruneInto(doc, d, p, scan.KernelOff(opts), feed, sink); on != off {
						t.Errorf("%q, projector %d, validate=%v, %s into %s:\nkernel  %s\ngeneral %s",
							doc, j, validate, feed, sink, on, off)
					}
				}
			}
		}
	}
}

// pruneInto renders one prune: its output, Stats and error.
func pruneInto(doc []byte, d *dtd.DTD, p *dtd.Projection, opts scan.Options, feed, sink string) string {
	src := scan.Source{Data: doc}
	if feed != "bytes" {
		src = scan.Source{R: iotest.OneByteReader(bytes.NewReader(doc))}
	}
	var out string
	var st scan.Stats
	var err error
	switch sink {
	case "writer":
		var buf bytes.Buffer
		bw := bufio.NewWriter(&buf)
		st, err = scan.Prune(src, scan.Sink{W: bw}, d, p, opts)
		bw.Flush()
		out = buf.String()
	case "spans":
		sl := new(scan.SpanList)
		st, err = scan.Prune(src, scan.Sink{Spans: sl}, d, p, opts)
		out = string(sl.Bytes())
	case "table":
		var rec recorder
		st, err = scan.Prune(src, scan.Sink{H: &rec}, d, p, opts)
		out = rec.String()
	}
	return fmt.Sprintf("%q %+v %v", out, st, err)
}

// recorder is a table sink that writes the events down.
type recorder struct{ strings.Builder }

func (r *recorder) StartElement(name []byte, attrs []scan.Attr) {
	fmt.Fprintf(r, "<%s", name)
	for _, a := range attrs {
		fmt.Fprintf(r, " %s=%q", a.Name, a.Value)
	}
	r.WriteString(">")
}
func (r *recorder) Text(data []byte) { fmt.Fprintf(r, "%q", data) }
func (r *recorder) EndElement()      { r.WriteString("</>") }
