package scan

import (
	"bufio"
	"fmt"
	"strings"
	"testing"
	tio "testing/iotest"

	"xmlproj/internal/dtd"
)

// skipCase is a document whose author subtree the projector below
// discards, with what the prune of it gives at each level: the output,
// the stats and the error message. The expectations were recorded from
// the per-construct balancing loop that skipBalance ran before the sweep
// (index.Balance) took over its plain stretches.
type skipCase struct {
	name, doc   string
	lax, strict skipWant // Validate off, on
}

type skipWant struct{ out, stats, err string }

// skipDoc wraps inner as the content of a discarded <author>.
func skipDoc(inner string) string {
	return `<bib><book isbn="1"><title>T</title><author>` + inner + `</author></book></bib>`
}

const skipKept = `<bib><book isbn="1"><title>T</title></book></bib>`

var skipCases = []skipCase{
	{"quoted > and />", skipDoc(`<x a=">" b="/>">t<y c='/>'/></x>`),
		skipWant{skipKept, "{ElementsIn:6 ElementsOut:3 TextIn:1 TextOut:1 ElementsSkipped:2 TextSkipped:0 BytesOut:0 MaxDepth:3}", ""},
		skipWant{skipKept, "{ElementsIn:6 ElementsOut:3 TextIn:2 TextOut:1 ElementsSkipped:2 TextSkipped:1 BytesOut:0 MaxDepth:3}", ""}},
	{"apostrophe in double quotes", skipDoc(`<x a="it's" b='say "hi"'>t</x>`),
		skipWant{skipKept, "{ElementsIn:5 ElementsOut:3 TextIn:1 TextOut:1 ElementsSkipped:1 TextSkipped:0 BytesOut:0 MaxDepth:3}", ""},
		skipWant{skipKept, "{ElementsIn:5 ElementsOut:3 TextIn:2 TextOut:1 ElementsSkipped:1 TextSkipped:1 BytesOut:0 MaxDepth:3}", ""}},
	{"spaces before > and />", skipDoc(`<a /><a ></a ><b><c/></b >`),
		skipWant{skipKept, "{ElementsIn:8 ElementsOut:3 TextIn:1 TextOut:1 ElementsSkipped:4 TextSkipped:0 BytesOut:0 MaxDepth:3}", ""},
		skipWant{skipKept, "{ElementsIn:8 ElementsOut:3 TextIn:1 TextOut:1 ElementsSkipped:4 TextSkipped:0 BytesOut:0 MaxDepth:3}", ""}},
	{"region end tag with space", `<bib><book isbn="1"><title>T</title><author><x/></author ></book></bib>`,
		skipWant{skipKept, "{ElementsIn:5 ElementsOut:3 TextIn:1 TextOut:1 ElementsSkipped:1 TextSkipped:0 BytesOut:0 MaxDepth:3}", ""},
		skipWant{skipKept, "{ElementsIn:5 ElementsOut:3 TextIn:1 TextOut:1 ElementsSkipped:1 TextSkipped:0 BytesOut:0 MaxDepth:3}", ""}},
	{"comment holding < and >", skipDoc(`a<!-- <x> </author> -->b<y/>`),
		skipWant{skipKept, "{ElementsIn:5 ElementsOut:3 TextIn:1 TextOut:1 ElementsSkipped:1 TextSkipped:0 BytesOut:0 MaxDepth:3}", ""},
		skipWant{skipKept, "{ElementsIn:5 ElementsOut:3 TextIn:2 TextOut:1 ElementsSkipped:1 TextSkipped:1 BytesOut:0 MaxDepth:3}", ""}},
	{"CDATA holding < and >", skipDoc(`<x><![CDATA[</x></author><y>]]></x>`),
		skipWant{skipKept, "{ElementsIn:5 ElementsOut:3 TextIn:1 TextOut:1 ElementsSkipped:1 TextSkipped:0 BytesOut:0 MaxDepth:3}", ""},
		skipWant{skipKept, "{ElementsIn:5 ElementsOut:3 TextIn:2 TextOut:1 ElementsSkipped:1 TextSkipped:1 BytesOut:0 MaxDepth:3}", ""}},
	{"PI holding < and >", skipDoc(`<?p </author> <x> ?><y/>`),
		skipWant{skipKept, "{ElementsIn:5 ElementsOut:3 TextIn:1 TextOut:1 ElementsSkipped:1 TextSkipped:0 BytesOut:0 MaxDepth:3}", ""},
		skipWant{skipKept, "{ElementsIn:5 ElementsOut:3 TextIn:1 TextOut:1 ElementsSkipped:1 TextSkipped:0 BytesOut:0 MaxDepth:3}", ""}},
	{"directive holding < and >", skipDoc(`<!D "</author>" <e <!-- > --> > ><y/>`),
		skipWant{skipKept, "{ElementsIn:5 ElementsOut:3 TextIn:1 TextOut:1 ElementsSkipped:1 TextSkipped:0 BytesOut:0 MaxDepth:3}", ""},
		skipWant{skipKept, "{ElementsIn:5 ElementsOut:3 TextIn:1 TextOut:1 ElementsSkipped:1 TextSkipped:0 BytesOut:0 MaxDepth:3}", ""}},
	{"nested, handed back mid-region", skipDoc(`<x><y><z/>t</y><!--c--><y>u<?p?></y></x><w a='1'/>`),
		skipWant{skipKept, "{ElementsIn:9 ElementsOut:3 TextIn:1 TextOut:1 ElementsSkipped:5 TextSkipped:0 BytesOut:0 MaxDepth:3}", ""},
		skipWant{skipKept, "{ElementsIn:9 ElementsOut:3 TextIn:3 TextOut:1 ElementsSkipped:5 TextSkipped:2 BytesOut:0 MaxDepth:3}", ""}},
	{"larger than the buffer", skipDoc(strings.Repeat(`<x a="1">t<y/><z b='>'></z ></x>`, 3000)),
		skipWant{skipKept, "{ElementsIn:9004 ElementsOut:3 TextIn:1 TextOut:1 ElementsSkipped:9000 TextSkipped:0 BytesOut:0 MaxDepth:3}", ""},
		skipWant{skipKept, "{ElementsIn:9004 ElementsOut:3 TextIn:3001 TextOut:1 ElementsSkipped:9000 TextSkipped:3000 BytesOut:0 MaxDepth:3}", ""}},
	{"< in a tag", skipDoc(`<x><y a="1" <z></y></x>`),
		skipWant{"", "", "XML syntax error: < inside a tag"},
		skipWant{"", "", "XML syntax error: expected attribute name in element"}},
	{"< in a quoted value", skipDoc(`<x a="1<2"/>`),
		skipWant{"", "", "XML syntax error: < inside a tag"},
		skipWant{"", "", "XML syntax error: unescaped < inside quoted string"}},
	{"tag unterminated at EOF", `<bib><book isbn="1"><title>T</title><author><x a="1"`,
		skipWant{"", "", "XML syntax error: unexpected EOF"},
		skipWant{"", "", "XML syntax error: unexpected EOF"}},
	{"end tag unterminated at EOF", `<bib><book isbn="1"><title>T</title><author><x></x`,
		skipWant{"", "", "XML syntax error: unexpected EOF"},
		skipWant{"", "", "XML syntax error: unexpected EOF"}},
	{"comment unterminated at EOF", `<bib><book isbn="1"><title>T</title><author><!-- x`,
		skipWant{"", "", "XML syntax error: unexpected EOF"},
		skipWant{"", "", "XML syntax error: unexpected EOF"}},
	{"CDATA unterminated at EOF", `<bib><book isbn="1"><title>T</title><author><![CDATA[ x`,
		skipWant{"", "", "XML syntax error: unexpected EOF"},
		skipWant{"", "", "XML syntax error: unexpected EOF in CDATA section"}},
	{"PI unterminated at EOF", `<bib><book isbn="1"><title>T</title><author><?p x`,
		skipWant{"", "", "XML syntax error: unexpected EOF"},
		skipWant{"", "", "XML syntax error: unexpected EOF"}},
	{"wrong closing name", `<bib><book isbn="1"><title>T</title><author><x/></autor></book></bib>`,
		skipWant{"", "", "XML syntax error: element <author> closed by </autor>"},
		skipWant{"", "", "XML syntax error: element <author> closed by </autor>"}},
	{"depth never returns", `<bib><book isbn="1"><title>T</title><author><x><y></author></book></bib>`,
		skipWant{"", "", "XML syntax error: element <author> closed by </bib>"},
		skipWant{"", "", "XML syntax error: element <y> closed by </author>"}},
	{"depth never returns before EOF", `<bib><book isbn="1"><title>T</title><author><x><y>`,
		skipWant{"", "", "XML syntax error: unexpected EOF"},
		skipWant{"", "", "XML syntax error: unexpected EOF"}},
}

// TestDiscardedSubtreeTable runs every skipCase at both levels from
// resident bytes and through one-byte and half reads, so every construct
// straddles a refill, against the expectations recorded before the sweep.
func TestDiscardedSubtreeTable(t *testing.T) {
	d, p := setup(t, dtd.NewNameSet("bib", "book", "title", "title#text", "book@isbn"))
	sources := map[string]func(string) Source{
		"bytes":   func(doc string) Source { return Source{Data: []byte(doc)} },
		"onebyte": func(doc string) Source { return Source{R: tio.OneByteReader(strings.NewReader(doc))} },
		"half":    func(doc string) Source { return Source{R: tio.HalfReader(strings.NewReader(doc))} },
	}
	for _, c := range skipCases {
		for srcName, src := range sources {
			for _, validate := range []bool{false, true} {
				want := c.lax
				if validate {
					want = c.strict
				}
				got := runSkipCase(src(c.doc), d, p, validate)
				if got != want {
					t.Errorf("%s, %s, validate=%v:\n got  %#v\n want %#v", c.name, srcName, validate, got, want)
				}
			}
		}
	}
}

func runSkipCase(src Source, d *dtd.DTD, p *dtd.Projection, validate bool) skipWant {
	var sb strings.Builder
	bw := bufio.NewWriter(&sb)
	st, err := Prune(src, Sink{W: bw}, d, p, Options{Validate: validate})
	if err != nil {
		return skipWant{err: err.Error()}
	}
	if err := bw.Flush(); err != nil {
		return skipWant{err: err.Error()}
	}
	return skipWant{out: sb.String(), stats: fmt.Sprintf("%+v", st)}
}
