package main

import (
	"encoding/json"
	"regexp"
	"sort"
	"strings"
	"testing"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func sameSet(t *testing.T, what string, emitted, declared []string) {
	t.Helper()
	a, b := append([]string(nil), emitted...), append([]string(nil), declared...)
	sort.Strings(a)
	sort.Strings(b)
	if strings.Join(a, " ") != strings.Join(b, " ") {
		t.Errorf("%s: the program emits\n  %v\nBENCHMARK.json declares\n  %v", what, a, b)
	}
}

// BENCHMARK.json is within the driver's limits and declares exactly the
// workloads the program runs. Metric names are held against it by pick,
// in every run.
func TestManifest(t *testing.T) {
	m, err := loadManifest("..")
	if err != nil {
		t.Fatal(err)
	}
	var workloads []string
	for _, w := range m.Workloads {
		workloads = append(workloads, w.Name)
		if len(w.Why) > 200 || strings.ContainsAny(w.Why, "\r\n") || w.Why == "" {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	for _, d := range m.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	for _, d := range m.PerLayer {
		if d.Bound != 0 {
			t.Errorf("%s: a per-layer metric has no bound", d.Name)
		}
	}
	sameSet(t, "workloads", workloadNames, workloads)

	seen := map[string]bool{}
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	for _, d := range append(append([]metricDecl(nil), m.EndToEnd...), m.PerLayer...) {
		if !nameRE.MatchString(d.Name) || seen[d.Name] {
			t.Errorf("metric name %q is malformed or used twice", d.Name)
		}
		seen[d.Name] = true
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("%s: unit %q is malformed", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better is %q", d.Name, d.Better)
		}
	}
	for _, w := range workloads {
		if !nameRE.MatchString(w) || seen[w] {
			t.Errorf("workload name %q is malformed or used twice", w)
		}
		seen[w] = true
	}
	if len(m.PerLayer) > 128 || len(m.EndToEnd) > 16 || m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("manifest outside the contract's limits")
	}
}

// pick refuses a run that did not measure a declared metric, and one
// that measured a metric BENCHMARK.json does not declare.
func TestPick(t *testing.T) {
	decls := []metricDecl{{Name: "op_ms", Unit: "ms"}, {Name: "setup_s", Unit: "s"}}
	got, err := pick(decls, map[string]float64{"op_ms": 1.5, "setup_s": 2})
	if err != nil || len(got) != 2 || got["op_ms"] != (metricValue{1.5, "ms"}) {
		t.Errorf("pick = %v, %v", got, err)
	}
	if _, err := pick(decls, map[string]float64{"op_ms": 1.5}); err == nil {
		t.Error("pick accepted a run that did not measure setup_s")
	}
	if _, err := pick(decls, map[string]float64{"op_ms": 1.5, "setup_s": 2, "stray": 3}); err == nil {
		t.Error("pick accepted a metric that is not declared")
	}
}

// golden.json covers every document x projection and every Q10 result
// the default-seed run verifies, full size and -smoke.
func TestGoldenCoversInputs(t *testing.T) {
	var golden map[string]outputID
	if err := json.Unmarshal(goldenJSON, &golden); err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, doc := range []string{"d1", "d3"} {
		for _, q := range q10 {
			want = append(want, "query/"+doc+"/"+q.ID)
		}
	}
	for _, key := range []string{
		"d1/low", "d1/mid", "d1/full", "d10/low", "d10/mid", "d30/low", "d30/mid", "d30/full",
	} {
		want = append(want, "prune/"+key)
	}
	for _, key := range want {
		if id, ok := golden[key]; !ok || id.Len <= 0 || len(id.SHA256) != 64 {
			t.Errorf("golden.json: %s missing or malformed: %+v", key, id)
		}
	}
	if len(golden) != len(want) {
		t.Errorf("golden.json has %d entries, the benchmark verifies %d", len(golden), len(want))
	}
}

// The request mix of the serve_* workloads is what the README says:
// two small documents to one medium, and in serve_warm every fourth
// request a body-free revalidation.
func TestRequestMix(t *testing.T) {
	bodies := map[string][]byte{"d1": []byte("<a/>"), "d10": []byte("<b/>")}
	count := func(workload string, n int) map[string]int {
		r := &runner{workload: workload, hot: make([]hotBody, 8)}
		for i := range r.hot {
			r.hot[i].class = "d1_low"
		}
		got := map[string]int{}
		for i := 0; i < n; i++ {
			class, req := r.nextRequest(i, bodies)
			got[class]++
			if (class == "reval_304") != (req.doc == nil) {
				t.Fatalf("%s request %d: class %s with body %q", workload, i, class, req.doc)
			}
		}
		return got
	}
	if got := count("serve_cold", 600); got["d1_low"] != 200 || got["d1_mid"] != 200 || got["d10_low"] != 100 || got["d10_mid"] != 100 {
		t.Errorf("serve_cold mix = %v", got)
	}
	if got := count("serve_warm", 800); got["reval_304"] != 200 || got["d1_low"] != 200 || got["d10_mid"] != 100 {
		t.Errorf("serve_warm mix = %v", got)
	}
	if got := count("serve_stream", 300); got["d1_low"] != 200 || got["d10_low"] != 100 {
		t.Errorf("serve_stream mix = %v", got)
	}
}
