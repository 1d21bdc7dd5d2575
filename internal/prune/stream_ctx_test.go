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
// resident × worker budget × Validate → engine (never the decoder), with GOMAXPROCS
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
				if got := chooseEngine(in.size, in.known, in.resident, budget, true); got != want {
					t.Errorf("GOMAXPROCS=%d budget=%d %s: engine %d, want %d", procs, budget, in.name, got, want)
				}
				// Without Validate the scanner, whatever the budget.
				if got := chooseEngine(in.size, in.known, in.resident, budget, false); got != EngineScanner {
					t.Errorf("GOMAXPROCS=%d budget=%d %s, no Validate: engine %d, want the scanner", procs, budget, in.name, got)
				}
			}
		}
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

// TestStreamChosenEngine is run's routing table, cell by cell: every
// source × sink the entry points can build, under EngineAuto at a worker
// budget of 1 and of 4 (with Validate and without) and under each forced
// engine. Each cell must
// report the engine the table names — including the two re-route rows —
// hand back the detail of that engine and no other, and produce output
// and stats identical to the forced serial scanner. The table has
// scanner, parallel and pipelined rows and nothing else.
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

	// The serial scanner's result at each level of Validate.
	var ref [2]bytes.Buffer
	var refStats [2]Stats
	level := map[bool]int{false: 0, true: 1}
	for validate, i := range level {
		var err error
		if refStats[i], err = Stream(&ref[i], strings.NewReader(big), d, pi, StreamOptions{Engine: EngineScanner, Validate: validate}); err != nil {
			t.Fatal(err)
		}
	}

	type entry func(opts StreamOptions) (string, Stats, error)
	reader := func(src func() io.Reader) entry {
		return func(opts StreamOptions) (string, Stats, error) {
			var out strings.Builder
			st, err := Stream(&out, src(), d, pi, opts)
			return out.String(), st, err
		}
	}
	sources := []struct {
		name           string
		run            entry
		resident, span bool
	}{
		{"reader unsized → writer", reader(func() io.Reader { return bufio.NewReader(strings.NewReader(big)) }), false, false},
		{"reader sized → writer", reader(func() io.Reader { return strings.NewReader(big) }), false, false},
		{"BytesSource reader → writer", reader(func() io.Reader { return residentReader{t, []byte(big)} }), true, false},
		{"bytes → writer", func(opts StreamOptions) (string, Stats, error) {
			var out strings.Builder
			st, err := StreamBytes(&out, []byte(big), d, pi, opts)
			return out.String(), st, err
		}, true, false},
		{"bytes → spans", func(opts StreamOptions) (string, Stats, error) {
			g, st, err := StreamGather([]byte(big), d, pi, opts)
			if err != nil {
				return "", st, err
			}
			defer g.Close()
			var out strings.Builder
			_, err = g.WriteTo(&out)
			return out.String(), st, err
		}, true, true},
	}
	engines := []struct {
		name string
		opts StreamOptions
		// want is the engine the table names for a source × sink.
		want func(resident, span bool) Engine
	}{
		{"auto, budget 1", StreamOptions{ParallelWorkers: 1, Validate: true}, func(bool, bool) Engine { return EngineScanner }},
		{"auto, budget 4", StreamOptions{ParallelWorkers: 4, Validate: true}, func(resident, _ bool) Engine {
			if resident {
				return EngineParallel
			}
			return EnginePipelined
		}},
		{"auto, budget 4, no Validate", StreamOptions{ParallelWorkers: 4}, func(bool, bool) Engine { return EngineScanner }},
		{"scanner", StreamOptions{Engine: EngineScanner}, func(bool, bool) Engine { return EngineScanner }},
		// Forced on a reader, parallel buffers the input: still parallel.
		{"parallel", StreamOptions{Engine: EngineParallel}, func(bool, bool) Engine { return EngineParallel }},
		// Forced into spans, pipelined is re-routed to parallel.
		{"pipelined", StreamOptions{Engine: EnginePipelined}, func(_, span bool) Engine {
			if span {
				return EngineParallel
			}
			return EnginePipelined
		}},
	}
	for _, src := range sources {
		for _, eng := range engines {
			label := src.name + ", " + eng.name
			want := eng.want(src.resident, src.span)
			// Stale details: the route must overwrite both.
			chosen, det, pdet := EngineAuto, ParallelDetail{Tasks: -1}, PipelineDetail{Tasks: -1}
			opts := eng.opts
			opts.Chosen, opts.Detail, opts.Pipeline = &chosen, &det, &pdet
			out, st, err := src.run(opts)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if chosen != want {
				t.Errorf("%s: chose %v, want %v", label, chosen, want)
			}
			if ran := det.Workers > 0; ran != (want == EngineParallel) || det.Tasks < 0 {
				t.Errorf("%s: parallel detail %+v after engine %v", label, det, want)
			}
			if ran := pdet.Windows > 0; ran != (want == EnginePipelined) || pdet.Tasks < 0 {
				t.Errorf("%s: pipeline detail %+v after engine %v", label, pdet, want)
			}
			if i := level[opts.Validate]; out != ref[i].String() || st != refStats[i] {
				t.Errorf("%s: output or stats diverge from the serial scanner (stats %+v, want %+v)", label, st, refStats[i])
			}
		}
	}

	// Small input: the scanner at any budget, and the out-param reports it.
	var chosen Engine
	var out bytes.Buffer
	if _, err := Stream(&out, strings.NewReader(bibDoc), d, pi, StreamOptions{Chosen: &chosen}); err != nil {
		t.Fatal(err)
	}
	if chosen != EngineScanner {
		t.Errorf("small input chose %v, want scanner", chosen)
	}

	// An engine value outside the table is an error, not a silent default,
	// from every source × sink. EngineDecoder is such a value: it names
	// the tests' oracle, which the build does not hold.
	for _, eng := range []Engine{EngineDecoder, Engine(99)} {
		for _, src := range sources {
			chosen := EngineAuto
			out, _, err := src.run(StreamOptions{Engine: eng, Chosen: &chosen})
			if err == nil || !strings.Contains(err.Error(), "no route for engine "+eng.String()) || out != "" {
				t.Errorf("%s, forced %s: got %d bytes and %v, want the no-route error", src.name, eng, len(out), err)
			}
			if chosen != eng {
				t.Errorf("%s, forced %s: Chosen reports %s", src.name, eng, chosen)
			}
		}
	}
}
