package scan

import (
	"bytes"
	"testing"
)

func TestSpanListGatherMechanics(t *testing.T) {
	input := []byte("0123456789abcdef")
	var sl SpanList
	sl.Reset(input)

	// Adjacent input spans coalesce into one segment.
	sl.raw(input, 0, 4)
	sl.raw(input, 4, 8)
	if sl.Segments() != 1 {
		t.Fatalf("adjacent raw spans: %d segments, want 1", sl.Segments())
	}
	// Adjacent synthesized bytes coalesce too.
	sl.litString("<x>")
	sl.litString("!")
	if sl.Segments() != 2 {
		t.Fatalf("after lits: %d segments, want 2", sl.Segments())
	}
	// A non-adjacent input span starts a new segment.
	sl.raw(input, 12, 16)
	if sl.Segments() != 3 {
		t.Fatalf("after gap: %d segments, want 3", sl.Segments())
	}

	want := "01234567<x>!cdef"
	if got := string(sl.Bytes()); got != want {
		t.Fatalf("Bytes() = %q, want %q", got, want)
	}
	if sl.Len() != int64(len(want)) {
		t.Fatalf("Len() = %d, want %d", sl.Len(), len(want))
	}
	if sl.RawBytes() != 12 {
		t.Fatalf("RawBytes() = %d, want 12", sl.RawBytes())
	}

	var wb bytes.Buffer
	n, err := sl.WriteTo(&wb)
	if err != nil || n != int64(len(want)) || wb.String() != want {
		t.Fatalf("WriteTo: n=%d err=%v got %q", n, err, wb.String())
	}
	// WriteTo is repeatable.
	wb.Reset()
	if _, err := sl.WriteTo(&wb); err != nil || wb.String() != want {
		t.Fatalf("second WriteTo: err=%v got %q", err, wb.String())
	}
}

func TestSpanListClearDropsReferences(t *testing.T) {
	input := []byte("abcd")
	sl := NewSpanList(input)
	sl.raw(input, 0, 4)
	sl.litString("x")
	sl.Close()
	if sl.input != nil || len(sl.spans) != 0 || len(sl.esc) != 0 || sl.Len() != 0 {
		t.Fatal("Close left state behind; the pool would pin caller data")
	}
}
