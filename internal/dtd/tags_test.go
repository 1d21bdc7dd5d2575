package dtd_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"xmlproj/internal/dtd"
	"xmlproj/internal/gen"
	"xmlproj/internal/xmark"
	"xmlproj/internal/xsd"
)

// tagGrammars are the grammars the tag table is checked on: XMark, every
// schema of internal/xsd's testdata, and random grammars of internal/gen.
func tagGrammars(t *testing.T) map[string]*dtd.DTD {
	t.Helper()
	out := map[string]*dtd.DTD{"xmark": dtd.MustParseString(xmark.DTDSource, "site")}
	paths, err := filepath.Glob(filepath.Join("..", "xsd", "testdata", "*.xsd"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no schemas under internal/xsd/testdata: %v", err)
	}
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		d, err := xsd.Parse(bytes.NewReader(src), "")
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		out[filepath.Base(p)] = d
	}
	for seed := int64(0); seed < 20; seed++ {
		d := gen.RandomDTD(seed, gen.DTDOptions{Elements: 4 + int(seed)*3, AllowRecursion: seed%2 == 1})
		out[fmt.Sprintf("random %d", seed)] = d
	}
	return out
}

// misses are strings near tag that are not tags: its proper prefixes and
// suffixes, every one-byte substitution, deletion and insertion, and a
// prefixed form.
func misses(tag string) []string {
	out := []string{"", "p:" + tag}
	for k := 0; k < len(tag); k++ {
		out = append(out, tag[:k], tag[k+1:], tag[:k]+tag[k+1:])
		for _, c := range []byte("a_Z.-0:\x00\xff") {
			if c != tag[k] {
				out = append(out, tag[:k]+string(c)+tag[k+1:])
			}
		}
	}
	for k := 0; k <= len(tag); k++ {
		out = append(out, tag[:k]+"x"+tag[k:], tag[:k]+"_"+tag[k:])
	}
	return out
}

// TestTagTable: every declared tag resolves to its symbol, and nothing
// near a tag resolves unless it is a tag itself.
func TestTagTable(t *testing.T) {
	for name, d := range tagGrammars(t) {
		syms := d.Symbols()
		tags := map[string]int32{}
		for e := int32(0); e < int32(syms.Len()); e++ {
			tags[syms.Info(e).Tag] = e
		}
		if len(tags) != syms.Len() {
			t.Fatalf("%s: %d symbols, %d distinct tags", name, syms.Len(), len(tags))
		}
		for tag, e := range tags {
			if got, ok := syms.Lookup([]byte(tag)); !ok || got != e {
				t.Errorf("%s: Lookup(%q) = %d, %v, want %d", name, tag, got, ok, e)
			}
			for _, m := range misses(tag) {
				want, declared := tags[m]
				got, ok := syms.Lookup([]byte(m))
				if ok != declared || ok && got != want {
					t.Errorf("%s: Lookup(%q) = %d, %v, want %d, %v", name, m, got, ok, want, declared)
				}
			}
		}
	}
}

// TestTagTableConcurrent: eight first users of a fresh grammar's symbol
// table look every tag up at once (run under -race): the table is built
// once and read without a lock.
func TestTagTableConcurrent(t *testing.T) {
	var tags []string
	ref := dtd.MustParseString(xmark.DTDSource, "site").Symbols()
	for e := int32(0); e < int32(ref.Len()); e++ {
		tags = append(tags, ref.Info(e).Tag)
	}
	d := dtd.MustParseString(xmark.DTDSource, "site")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			syms := d.Symbols()
			for i := 0; i < 50; i++ {
				for _, tag := range tags {
					if e, ok := syms.Lookup([]byte(tag)); !ok || syms.Info(e).Tag != tag {
						t.Errorf("Lookup(%q) = %d, %v", tag, e, ok)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
