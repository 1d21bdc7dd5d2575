package xmlproj

import (
	"bytes"
	"io"
	"testing"

	"xmlproj/internal/xmark"
)

// TestLoadProjectedIsTheLoadOfThePrune: on XMark, for the projector of
// every Q10 query and of the benchmark's low and mid projections, at both
// levels of checking, LoadProjected builds the document ParseXMLBytes
// builds from PruneGather's output — the same serialisation and node
// count — and reports PruneGather's stats: BytesOut is the length of that
// output, which is also the loaded document's serialised Size. It does so
// from a reader and from a reader holding its input in memory, which it
// prunes in place without reading.
func TestLoadProjectedIsTheLoadOfThePrune(t *testing.T) {
	d, err := ParseDTDString(xmark.DTDSource, "site")
	if err != nil {
		t.Fatal(err)
	}
	input := []byte(xmark.NewGenerator(0.01, 42).Document().XML())
	sources := []string{`/site/regions/africa/item/location`, `//person[emailaddress]/name`}
	for _, id := range q10 {
		sources = append(sources, benchmarkQuerySource(id))
	}
	for _, src := range sources {
		q, err := Compile(src)
		if err != nil {
			t.Fatal(err)
		}
		p, err := d.Infer(Materialized, q)
		if err != nil {
			t.Fatal(err)
		}
		for _, validate := range []bool{false, true} {
			opts := StreamOptions{Validate: validate}
			res, err := p.PruneGather(input, opts)
			if err != nil {
				t.Fatal(err)
			}
			pruned := res.Bytes()
			res.Close()
			want, err := ParseXMLBytes(pruned)
			if err != nil {
				t.Fatal(err)
			}
			for name, r := range map[string]io.Reader{"reader": bytes.NewReader(input), "resident": residentInput{t, input}} {
				got, st, err := p.LoadProjected(r, opts)
				switch {
				case err != nil:
					t.Fatalf("%s, %s, validate=%v: %v", src, name, validate, err)
				case st != res.Stats:
					t.Errorf("%s, %s, validate=%v: stats %+v, PruneGather's %+v", src, name, validate, st, res.Stats)
				case st.BytesOut != int64(len(pruned)) || got.Size() != int64(len(pruned)):
					t.Errorf("%s, %s, validate=%v: BytesOut %d, Size %d, pruned %d bytes", src, name, validate, st.BytesOut, got.Size(), len(pruned))
				case got.NumNodes() != want.NumNodes() || got.XML() != want.XML():
					t.Errorf("%s, %s, validate=%v: %d nodes, the load of the prune %d, or another serialisation", src, name, validate, got.NumNodes(), want.NumNodes())
				}
			}
		}
	}
}

// residentInput is a reader whose content is already in memory: a prune
// takes its bytes and never reads it.
type residentInput struct {
	t    *testing.T
	data []byte
}

func (r residentInput) InputBytes() []byte { return r.data }

func (r residentInput) Read([]byte) (int, error) {
	r.t.Error("a reader holding its input in memory was read")
	return 0, io.ErrUnexpectedEOF
}

// NumNodes returns the number of element and text nodes.
func (doc *Document) NumNodes() int { return doc.t.NumNodes() }
