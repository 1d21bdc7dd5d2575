// Package scantest holds what more than one package's tests of the
// scanner share: the tag kernel's table of start tags, the documents built
// from it, and the Unique Att Spec check the encoding/xml oracles add to
// the decoder. Only tests import it.
//
// Defended by: test oracle (the tag table and the Unique Att Spec check the oracles share).
package scantest

import (
	"bytes"
	_ "embed"
	"strconv"
	"strings"
)

//go:embed kernel_tags.txt
var kernelTags string

// KernelTags returns every tag of kernel_tags.txt, and the ones under
// "# Plain.", which the tag kernel takes.
func KernelTags() (tags, plain []string) {
	section := ""
	for _, line := range strings.Split(strings.TrimSpace(kernelTags), "\n") {
		if strings.HasPrefix(line, "#") {
			section = line
			continue
		}
		tag, err := strconv.Unquote(line)
		if err != nil {
			panic("kernel_tags.txt: " + line + ": " + err.Error())
		}
		tags = append(tags, tag)
		if section == "# Plain." {
			plain = append(plain, tag)
		}
	}
	return tags, plain
}

// KernelDocs puts each tag of KernelTags where the kernel meets it —
// inside the root, and as the root — and every truncation of it at the
// end of input, and adds a second root and text outside the root right
// after a plain tag.
func KernelDocs() []string {
	docs := []string{
		`<r x="1"/><a/>`, `<r></r><a x="1">`, `<r x="1"/>junk`, `<r/> `,
		`<r></r>junk<a/>`, `<r x="1"></r><!--c--><a/>`, `<r/><?p?> <a/>`,
	}
	tags, _ := KernelTags()
	for _, tag := range tags {
		end := "</a>"
		if strings.HasSuffix(tag, "/>") {
			end = ""
		}
		docs = append(docs, "<r>"+tag+"t"+end+"</r>", tag+end)
		for k := 1; k < len(tag); k++ {
			docs = append(docs, "<r>"+tag[:k], tag[:k])
		}
	}
	return docs
}

// RepeatedAttr returns an attribute name that the start tag raw, as a
// decoder accepted it, spells twice, or "". Names are compared as
// written (XML 1.0 §3.1, WFC Unique Att Spec), xmlns ones too: x beside
// p:x is no repeat. encoding/xml resolves prefixes, so the names are read
// off the bytes.
func RepeatedAttr(raw []byte) string {
	i := bytes.IndexAny(raw, " \t\r\n") // past '<' and the element name
	if i < 0 {
		return ""
	}
	seen := map[string]bool{}
	for raw = raw[i:]; ; {
		raw = bytes.TrimLeft(raw, " \t\r\n")
		eq := bytes.IndexByte(raw, '=')
		if eq < 0 {
			return "" // only "/>" or ">" is left
		}
		name := string(bytes.TrimRight(raw[:eq], " \t\r\n"))
		if seen[name] {
			return name
		}
		seen[name] = true
		raw = bytes.TrimLeft(raw[eq+1:], " \t\r\n")
		quote := raw[0]
		raw = raw[1:]
		raw = raw[bytes.IndexByte(raw, quote)+1:]
	}
}
