package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"xmlproj"
)

func TestRunGeneratesValidDocument(t *testing.T) {
	var doc, dtdSrc, errBuf bytes.Buffer
	if err := run([]string{"-factor", "0.001", "-seed", "7"}, &doc, &errBuf); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-dtd"}, &dtdSrc, &errBuf); err != nil {
		t.Fatal(err)
	}
	d, err := xmlproj.ParseDTDString(dtdSrc.String(), "site")
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(&doc); err != nil {
		t.Fatalf("generated document invalid: %v", err)
	}
}

func TestRunDeterministic(t *testing.T) {
	var a, b, errBuf bytes.Buffer
	if err := run([]string{"-factor", "0.001", "-seed", "3"}, &a, &errBuf); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-factor", "0.001", "-seed", "3"}, &b, &errBuf); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("same seed produced different output")
	}
}

func TestRunWritesFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.xml")
	var silent, errBuf bytes.Buffer
	if err := run([]string{"-factor", "0.001", "-o", path}, &silent, &errBuf); err != nil {
		t.Fatal(err)
	}
	src, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := xmlproj.ParseXMLBytes(src)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(doc.XML(), "<site>") {
		t.Fatal("file content wrong")
	}
}

func TestRunBadFlag(t *testing.T) {
	var out, errBuf bytes.Buffer
	if err := run([]string{"-nonsense"}, &out, &errBuf); err == nil {
		t.Fatal("bad flag accepted")
	}
}
