package prune

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"testing"

	"xmlproj/internal/dtd"
	"xmlproj/internal/tree"
)

// TestStreamContextCancelled: a cancelled context aborts the prune
// before the next read; the returned error unwraps to the context
// error with errors.Is.
func TestStreamContextCancelled(t *testing.T) {
	d, _ := setup(t)
	pi := dtd.NewNameSet("bib", "book", "title", dtd.TextName("title"))

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var out bytes.Buffer
	_, err := Stream(&out, strings.NewReader(bibDoc), d, pi, StreamOptions{Ctx: ctx})
	if err == nil {
		t.Fatal("prune under a cancelled context succeeded")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not unwrap to context.Canceled", err)
	}
}

// cancelMidwayReader cancels its context after the first chunk, so the
// prune aborts mid-document.
type cancelMidwayReader struct {
	data   []byte
	served bool
	cancel context.CancelFunc
}

func (r *cancelMidwayReader) Read(p []byte) (int, error) {
	if r.served {
		return 0, io.EOF
	}
	r.served = true
	half := len(r.data) / 2
	n := copy(p, r.data[:half])
	r.cancel()
	return n, nil
}

func TestStreamContextCancelledMidway(t *testing.T) {
	d, _ := setup(t)
	pi := dtd.NewNameSet("bib", "book", "title", dtd.TextName("title"))

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var out bytes.Buffer
	_, err := Stream(&out, &cancelMidwayReader{data: []byte(bibDoc), cancel: cancel}, d, pi, StreamOptions{Ctx: ctx})
	if err == nil {
		t.Fatal("prune cancelled midway succeeded")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not unwrap to context.Canceled", err)
	}
}

// residentReader is a reader whose content is already in memory
// (BytesSource): the route must take the bytes and never read.
type residentReader struct {
	t    *testing.T
	data []byte
}

func (r residentReader) InputBytes() []byte { return r.data }

func (r residentReader) Read([]byte) (int, error) {
	r.t.Error("the route read from a BytesSource")
	return 0, io.ErrUnexpectedEOF
}

// TestStreamChosenEngine is run's dispatch, engine × source × sink: every
// cell the entry points can build, under EngineAuto and under each forced
// engine. Auto must resolve to the scanner at every size — a small
// document and a 20 MiB one — from every source, into every sink, at
// both levels of Validate, with GOMAXPROCS at 8. The scanner runs in all
// five cells (reader or resident bytes, into a writer, spans or a
// handler; spans only from bytes), and so do the deprecated
// EngineParallel and EnginePipelined, which resolve to it; EngineDecoder
// and an unknown engine fail in every cell with run's "no route" text.
// Every cell that runs reports the scanner and produces output, stats
// and errors identical to the forced serial scanner — for the table
// sink, a document whose serialisation is that output.
func TestStreamChosenEngine(t *testing.T) {
	d, _ := setup(t)
	pi := dtd.NewNameSet("bib", "book", "title", dtd.TextName("title"))

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))

	var sb strings.Builder
	sb.WriteString("<bib>")
	for sb.Len() < 20<<20 {
		sb.WriteString(`<book isbn="1"><title>T</title><author>A</author></book>`)
	}
	sb.WriteString("</bib>")
	docs := map[string]string{"small": bibDoc, "20 MiB": sb.String()}

	type entry func(doc string, opts StreamOptions) (string, Stats, error)
	reader := func(src func(doc string) io.Reader) entry {
		return func(doc string, opts StreamOptions) (string, Stats, error) {
			var out strings.Builder
			st, err := Stream(&out, src(doc), d, pi, opts)
			return out.String(), st, err
		}
	}
	load := func(src func(doc string) io.Reader) entry {
		return func(doc string, opts StreamOptions) (string, Stats, error) {
			t, st, err := Load(src(doc), d, pi, opts)
			if err != nil {
				return "", st, err
			}
			return t.XML(), st, nil
		}
	}
	resident := func(doc string) io.Reader { return residentReader{t, []byte(doc)} }
	sources := []struct {
		name     string
		run      entry
		resident bool
		to       string
	}{
		{"reader unsized → writer", reader(func(doc string) io.Reader { return bufio.NewReader(strings.NewReader(doc)) }), false, "writer"},
		{"reader sized → writer", reader(func(doc string) io.Reader { return strings.NewReader(doc) }), false, "writer"},
		{"BytesSource reader → writer", reader(resident), true, "writer"},
		{"bytes → writer", func(doc string, opts StreamOptions) (string, Stats, error) {
			var out strings.Builder
			st, err := StreamBytes(&out, []byte(doc), d, pi, opts)
			return out.String(), st, err
		}, true, "writer"},
		{"bytes → spans", func(doc string, opts StreamOptions) (string, Stats, error) {
			g, st, err := StreamGather([]byte(doc), d, pi, opts)
			if err != nil {
				return "", st, err
			}
			defer g.Close()
			var out strings.Builder
			_, err = g.WriteTo(&out)
			return out.String(), st, err
		}, true, "span"},
		// The table sink, rendered: a load's serialisation is the bytes it
		// was loaded from.
		{"reader → handler", load(func(doc string) io.Reader { return strings.NewReader(doc) }), false, "handler"},
		{"BytesSource reader → handler", load(resident), true, "handler"},
	}
	// runs reports whether an engine runs in a source × sink cell.
	runs := map[Engine]func(resident bool, to string) bool{
		EngineScanner: func(bool, string) bool { return true },
		EngineDecoder: func(bool, string) bool { return false },
		Engine(99):    func(bool, string) bool { return false },
	}
	type cell struct {
		resident bool
		to       string
	}
	ran := map[Engine]map[cell]bool{}

	for size, doc := range docs {
		for _, validate := range []bool{false, true} {
			var ref bytes.Buffer
			refStats, err := Stream(&ref, strings.NewReader(doc), d, pi, StreamOptions{Engine: EngineScanner, Validate: validate})
			if err != nil {
				t.Fatal(err)
			}
			for _, src := range sources {
				for _, eng := range []Engine{EngineAuto, EngineScanner, EngineParallel, EnginePipelined, EngineDecoder, Engine(99)} {
					if size != "small" && eng != EngineAuto {
						continue // the forced cells are the same at any size
					}
					label := fmt.Sprintf("%s, %s, %s, validate=%v", size, src.name, eng, validate)
					want := eng
					if eng == EngineAuto || eng == EngineParallel || eng == EnginePipelined {
						want = EngineScanner
					}
					chosen := EngineAuto
					out, st, err := src.run(doc, StreamOptions{Engine: eng, Validate: validate, Chosen: &chosen})
					if chosen != want {
						t.Errorf("%s: chose %v, want %v", label, chosen, want)
					}
					if !runs[want](src.resident, src.to) {
						noRoute := fmt.Sprintf("prune: no route for engine %s (resident input %v, %s sink)", want, src.resident, src.to)
						if err == nil || err.Error() != noRoute || out != "" {
							t.Errorf("%s: got %d bytes and %v, want %q", label, len(out), err, noRoute)
						}
						continue
					}
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					if ran[eng] == nil {
						ran[eng] = map[cell]bool{}
					}
					ran[eng][cell{src.resident, src.to}] = true
					if out != ref.String() || st != refStats {
						t.Errorf("%s: output or stats diverge from the serial scanner (stats %+v, want %+v)", label, st, refStats)
					}
				}
			}
		}
	}

	for eng, want := range map[Engine]int{EngineAuto: 5, EngineScanner: 5, EngineParallel: 5, EnginePipelined: 5} {
		if len(ran[eng]) != want {
			t.Errorf("%s ran in %d cells %v, want %d", eng, len(ran[eng]), ran[eng], want)
		}
	}

	// A repeated attribute name is malformed in every cell, at both levels,
	// in the loader's words, and every engine that runs says so as the
	// scanner does.
	const repeated = "attribute isbn repeated in element"
	dup := `<bib><book isbn="1" isbn="2"><title>T</title><author>A</author></book></bib>`
	if _, err := tree.ParseBytes([]byte(dup)); err == nil || !strings.Contains(err.Error(), repeated) {
		t.Errorf("the loader: %v, want %q", err, repeated)
	}
	for _, src := range sources {
		for _, validate := range []bool{false, true} {
			_, refStats, ref := src.run(dup, StreamOptions{Engine: EngineScanner, Validate: validate})
			if ref == nil || !strings.Contains(ref.Error(), repeated) {
				t.Errorf("%s, validate=%v: %v, want %q", src.name, validate, ref, repeated)
				continue
			}
			for _, eng := range []Engine{EngineAuto, EngineParallel, EnginePipelined} {
				if _, st, err := src.run(dup, StreamOptions{Engine: eng, Validate: validate}); err == nil || err.Error() != ref.Error() || st != refStats {
					t.Errorf("%s, %s, validate=%v: %v and %+v, want the scanner's %v and %+v", src.name, eng, validate, err, st, ref, refStats)
				}
			}
		}
	}
}
