package mmapio

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

func TestOpenSmallReads(t *testing.T) {
	p := filepath.Join(t.TempDir(), "small.xml")
	want := []byte("<a>hi</a>")
	if err := os.WriteFile(p, want, 0o644); err != nil {
		t.Fatal(err)
	}
	d, err := Open(p)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if d.Mapped() {
		t.Error("small file should not be mapped")
	}
	if !bytes.Equal(d.Bytes(), want) {
		t.Errorf("content mismatch: got %q", d.Bytes())
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
}

func TestOpenLargeMaps(t *testing.T) {
	p := filepath.Join(t.TempDir(), "large.xml")
	want := bytes.Repeat([]byte("<a>0123456789abcdef</a>\n"), (minMapSize/24)+1)
	if err := os.WriteFile(p, want, 0o644); err != nil {
		t.Fatal(err)
	}
	d, err := Open(p)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if runtime.GOOS == "linux" && !d.Mapped() {
		t.Error("large regular file should be mapped on linux")
	}
	if !bytes.Equal(d.Bytes(), want) {
		t.Error("content mismatch")
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestOpenMissing(t *testing.T) {
	if _, err := Open(filepath.Join(t.TempDir(), "nope")); err == nil {
		t.Fatal("expected error for missing file")
	}
}

// Mapped reports whether the content is a memory mapping (as opposed
// to a heap buffer filled by read).
func (d *Data) Mapped() bool { return d.mapped }
