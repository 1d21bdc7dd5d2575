package scan

import (
	"slices"
	"strings"
	"testing"

	"xmlproj/internal/scan/scantest"
)

// TestTagKernelMatchesGeneralPath: on every document of
// scantest.KernelDocs the walk gives the events, the verdict and the
// message of a walk that reads every start tag the long way.
func TestTagKernelMatchesGeneralPath(t *testing.T) {
	for _, doc := range scantest.KernelDocs() {
		var fast, slow events
		ferr := Walk([]byte(doc), &fast)
		serr := walk([]byte(doc), &slow, true)
		if fast.String() != slow.String() || (ferr == nil) != (serr == nil) || ferr != nil && ferr.Error() != serr.Error() {
			t.Errorf("%q:\nkernel  %s, %v\ngeneral %s, %v", doc, fast.String(), ferr, slow.String(), serr)
		}
	}
}

// TestTagKernelRefuses: the kernel consumes nothing when it refuses, and
// on a tag it takes it stops right after the tag.
func TestTagKernelRefuses(t *testing.T) {
	tags, plain := scantest.KernelTags()
	if len(plain) == 0 {
		t.Fatal("no plain tags")
	}
	for _, tag := range tags {
		for k := 1; k <= len(tag); k++ {
			src := tag[:k]
			s := new(Scanner)
			s.ResetBytes([]byte(src + "t"))
			s.pos = 1 // past the '<'
			name, attrs, empty, _, ok := s.plainTag(nil, false)
			switch {
			case !ok && k == len(tag) && slices.Contains(plain, tag):
				t.Errorf("%q: refused a plain tag", src)
			case !ok && s.pos != 1:
				t.Errorf("%q: refused, but consumed %d bytes", src, s.pos-1)
			case ok && s.pos != len(src):
				t.Errorf("%q: took %q of it", src, src[:s.pos])
			case ok && (len(name) == 0 || empty != strings.HasSuffix(src, "/>") || len(attrs) > strings.Count(src, "=")):
				t.Errorf("%q: name %q, %d attributes, empty %v", src, name, len(attrs), empty)
			}
		}
	}
}

// TestWalkEndTagLongWay: an end tag the open name does not close is read
// by endName, as in the pruner, so a malformed name followed by anything
// but '>' is reported by what follows it.
func TestWalkEndTagLongWay(t *testing.T) {
	for doc, want := range map[string]string{
		`<a></a:b:c x>`: "XML syntax error: invalid characters between </a:b:c and >",
		`<a></a:b:c>`:   "XML syntax error: expected element name after </",
		`<a></1a>`:      "XML syntax error: invalid XML name: 1a",
		`<a></b >`:      "element <a> closed by </b>",
		`<a/></a>`:      "unbalanced end element a",
		`<a></a x>`:     "XML syntax error: invalid characters between </a and >",
	} {
		if err := Walk([]byte(doc), new(events)); err == nil || err.Error() != want {
			t.Errorf("%q: got %v, want %s", doc, err, want)
		}
	}
}
