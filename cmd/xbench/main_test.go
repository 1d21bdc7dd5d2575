package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestRunSubset(t *testing.T) {
	var out, errBuf bytes.Buffer
	if err := run([]string{"-factor", "0.002", "-q", "QM01,QP01", "-baseline"}, &out, &errBuf); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"Table 1", "Figure 4", "Figure 5", "Baseline", "QM01", "QP01", "max@512MB"} {
		if !strings.Contains(s, want) {
			t.Errorf("output misses %q", want)
		}
	}
}

func TestRunUnknownQuery(t *testing.T) {
	var out, errBuf bytes.Buffer
	if err := run([]string{"-q", "QZ99"}, &out, &errBuf); err == nil {
		t.Fatal("unknown query accepted")
	}
}

// TestRunRemovedMode: the pruner micro-benchmark mode is gone (benchmark/
// measures the same layers as rows of a traced run); its flag is unknown.
func TestRunRemovedMode(t *testing.T) {
	var out, errBuf bytes.Buffer
	err := run([]string{"-streamprune"}, &out, &errBuf)
	if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: -streamprune") {
		t.Fatalf("-streamprune: err = %v, want an unknown-flag error", err)
	}
}
