package prune

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"io"
	"runtime"
	"strings"
	"testing"

	"xmlproj/internal/dtd"
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

// TestChooseEngine pins EngineAuto's routing rule: size × size known ×
// resident × worker budget → engine (never the decoder), with GOMAXPROCS
// set explicitly so the expectations do not depend on the host.
func TestChooseEngine(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))

	const small, mid, large = 64 << 10, pipelineMinBytes, parallelMinBytes
	type input struct {
		name             string
		size             int64
		known, resident  bool
		concurrentEngine Engine // what a sufficient budget selects
	}
	inputs := []input{
		{"small reader", small, true, false, EngineScanner},
		{"1 MiB reader", mid, true, false, EnginePipelined},
		{"4 MiB reader", large, true, false, EnginePipelined},
		{"unsized reader", 0, false, false, EnginePipelined},
		{"small bytes", small, true, true, EngineScanner},
		{"1 MiB bytes", mid, true, true, EngineScanner},
		{"4 MiB bytes", large, true, true, EngineParallel},
	}
	for _, procs := range []int{1, 2, 4, 8} {
		runtime.GOMAXPROCS(procs)
		for _, budget := range []int{0, 1, 2, 3, 4, 8} {
			effective := budget
			if effective == 0 || effective > procs {
				effective = procs
			}
			for _, in := range inputs {
				want := EngineScanner
				if effective >= concurrentMinWorkers {
					want = in.concurrentEngine
				}
				if got := chooseEngine(in.size, in.known, in.resident, budget); got != want {
					t.Errorf("GOMAXPROCS=%d budget=%d %s: engine %d, want %d", procs, budget, in.name, got, want)
				}
			}
		}
	}
}

// TestStreamChosenEngine: every entry point routes through chooseEngine
// and reports what it resolved — the concurrent engines at a worker
// budget of 4, the scanner below it — with output and stats identical
// to the forced serial scanner either way.
func TestStreamChosenEngine(t *testing.T) {
	d, _ := setup(t)
	pi := dtd.NewNameSet("bib", "book", "title", dtd.TextName("title"))

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))

	// A document over both size thresholds.
	var sb strings.Builder
	sb.WriteString("<bib>")
	row := `<book isbn="1"><title>T</title><author>A</author></book>`
	for sb.Len() < parallelMinBytes+1024 {
		sb.WriteString(row)
	}
	sb.WriteString("</bib>")
	big := sb.String()

	var ref bytes.Buffer
	refStats, err := Stream(&ref, strings.NewReader(big), d, pi, StreamOptions{Engine: EngineScanner})
	if err != nil {
		t.Fatal(err)
	}

	type entry func(opts StreamOptions) (string, Stats, error)
	reader := func(src func() io.Reader) entry {
		return func(opts StreamOptions) (string, Stats, error) {
			var out strings.Builder
			st, err := Stream(&out, src(), d, pi, opts)
			return out.String(), st, err
		}
	}
	entries := []struct {
		name       string
		run        entry
		concurrent Engine
	}{
		{"Stream sized", reader(func() io.Reader { return strings.NewReader(big) }), EnginePipelined},
		{"Stream unsized", reader(func() io.Reader { return bufio.NewReader(strings.NewReader(big)) }), EnginePipelined},
		{"StreamBytes", func(opts StreamOptions) (string, Stats, error) {
			var out strings.Builder
			st, err := StreamBytes(&out, []byte(big), d, pi, opts)
			return out.String(), st, err
		}, EngineParallel},
		{"StreamGather", func(opts StreamOptions) (string, Stats, error) {
			g, st, err := StreamGather([]byte(big), d, pi, opts)
			if err != nil {
				return "", st, err
			}
			defer g.Close()
			return string(g.Bytes()), st, nil
		}, EngineParallel},
	}
	for _, e := range entries {
		for _, budget := range []int{0, 1, 2, 3, 4} {
			want := EngineScanner
			if budget == 0 || budget >= concurrentMinWorkers {
				want = e.concurrent
			}
			var chosen Engine
			out, st, err := e.run(StreamOptions{ParallelWorkers: budget, Chosen: &chosen})
			if err != nil {
				t.Fatalf("%s budget %d: %v", e.name, budget, err)
			}
			if chosen != want {
				t.Errorf("%s budget %d: chosen engine %d, want %d", e.name, budget, chosen, want)
			}
			if out != ref.String() || st != refStats {
				t.Errorf("%s budget %d: output or stats diverge from the serial scanner", e.name, budget)
			}
		}
	}

	// Small input: the scanner, and the out-param reports it.
	var chosen Engine
	var out bytes.Buffer
	if _, err := Stream(&out, strings.NewReader(bibDoc), d, pi, StreamOptions{Chosen: &chosen}); err != nil {
		t.Fatal(err)
	}
	if chosen != EngineScanner {
		t.Errorf("small input chose engine %d, want scanner", chosen)
	}
}
