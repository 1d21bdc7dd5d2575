package core

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"xmlproj/internal/dtd"
	"xmlproj/internal/testkit"
	"xmlproj/internal/xpathl"
)

// largeDTD synthesises an XHTML-scale grammar: width top-level sections,
// each a depth-deep chain of containers whose leaves are mixed-content
// paragraphs sharing inline elements (the sharing makes upward axes
// genuinely ambiguous, like XHTML's %inline entities).
func largeDTD(width, depth int) *dtd.DTD {
	var sb strings.Builder
	sb.WriteString("<!ELEMENT doc (")
	for i := 0; i < width; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "sec%d_0", i)
	}
	sb.WriteString(")>\n")
	for i := 0; i < width; i++ {
		for d := 0; d < depth; d++ {
			if d == depth-1 {
				fmt.Fprintf(&sb, "<!ELEMENT sec%d_%d (para*)>\n", i, d)
			} else {
				fmt.Fprintf(&sb, "<!ELEMENT sec%d_%d (title?, sec%d_%d*)>\n", i, d, i, d+1)
			}
		}
	}
	sb.WriteString(`
<!ELEMENT title (#PCDATA)>
<!ELEMENT para (#PCDATA | em | strong | span | a)*>
<!ELEMENT em (#PCDATA | em | strong | span | a)*>
<!ELEMENT strong (#PCDATA | em | strong | span | a)*>
<!ELEMENT span (#PCDATA | em | strong | span | a)*>
<!ELEMENT a (#PCDATA)>
<!ATTLIST a href CDATA #REQUIRED>
`)
	return dtd.MustParseString(sb.String(), "doc")
}

// TestLargeDTDLongQuery reproduces the §6 stress: a large DTD (hundreds
// of element names) and an XPath expression of twenty-odd steps; the
// static analysis must stay well below the paper's half-second bound and
// produce a selective projector.
func TestLargeDTDLongQuery(t *testing.T) {
	d := largeDTD(30, 8) // 30·8 sections + inlines ≈ 250 element names
	if got := len(d.Defs); got < 240 {
		t.Fatalf("stress DTD has only %d names", got)
	}

	// A 20-step query: down a section chain, into paragraphs, through the
	// recursive inline soup and back up.
	steps := []string{"self::doc"}
	for i := 0; i < 8; i++ {
		steps = append(steps, fmt.Sprintf("child::sec7_%d", i))
	}
	steps = append(steps,
		"child::para", "descendant::em", "child::strong", "descendant::a",
		"parent::node()", "ancestor::para", "child::span", "descendant::a",
		"child::text()", "parent::node()", "ancestor::sec7_3",
	)
	src := strings.Join(steps, "/")
	paths, err := xpathl.FromQuery(testkit.XPath(src))
	if err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	pr, err := Infer(d, paths)
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if elapsed > 500*time.Millisecond {
		t.Errorf("inference took %s, paper's bound is 0.5 s", elapsed)
	}
	// Other sections' chains must be pruned away entirely.
	for i := 0; i < 30; i++ {
		if i == 7 {
			continue
		}
		if pr.Has(dtd.Name(fmt.Sprintf("sec%d_4", i))) {
			t.Fatalf("projector keeps unrelated section sec%d_4: took %s", i, elapsed)
		}
	}
	if !pr.Has("sec7_7") || !pr.Has("para") {
		t.Fatalf("projector misses the queried spine: %s", pr)
	}
	t.Logf("large-DTD inference: %d names in DTD, %d in π, %s", len(d.Defs), pr.Row.Len(), elapsed)
}

// TestLargeDTDQueryBunch runs all-sections queries as a bunch, the §5
// multi-query scenario at scale.
func TestLargeDTDQueryBunch(t *testing.T) {
	d := largeDTD(20, 6)
	var all []*xpathl.Path
	start := time.Now()
	for i := 0; i < 20; i++ {
		src := fmt.Sprintf("/doc/sec%d_0//para[a]/title | /doc/sec%d_0//title", i, i)
		ps, err := xpathl.FromQuery(testkit.XPath(src))
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, ps...)
	}
	pr, err := Infer(d, all)
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if elapsed > 2*time.Second {
		t.Errorf("bunch inference took %s", elapsed)
	}
	if !pr.Has("title") {
		t.Fatalf("bunch projector misses title: %s", pr)
	}
	t.Logf("bunch of 20 queries over %d names: π has %d names, %s", len(d.Defs), pr.Row.Len(), elapsed)
}
