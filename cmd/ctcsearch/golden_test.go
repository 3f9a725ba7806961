package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the golden files from the current output")

// durationRe matches the elapsed-time tokens in the CLI output ("built in
// 1.2ms", "community in 345µs"), the only non-deterministic part of a run.
var durationRe = regexp.MustCompile(`\bin [0-9][^ \n)]*`)

func normalizeOutput(b []byte) []byte {
	return durationRe.ReplaceAll(b, []byte("in <dur>"))
}

// TestGoldenOutput is the end-to-end CLI-layer test: it runs a full search
// over the committed fixture graph (the paper's Figure 1(a)) and compares
// the complete normalized report — graph header, index line, community
// stats, member list — against a checked-in golden file per algorithm.
// Regenerate with: go test ./cmd/ctcsearch/ -run TestGoldenOutput -update-golden
func TestGoldenOutput(t *testing.T) {
	fixture := filepath.Join("testdata", "fixture.txt")
	for _, tc := range []struct {
		algo   string
		golden string
	}{
		{"lctc", "golden_lctc.txt"},
		{"truss", "golden_truss.txt"},
		{"basic", "golden_basic.txt"},
	} {
		var buf bytes.Buffer
		if err := run(&buf, fixture, "", "0,1,2", tc.algo, 0, 0, 0, 0, true, true, ""); err != nil {
			t.Fatalf("%s: %v", tc.algo, err)
		}
		got := normalizeOutput(buf.Bytes())
		path := filepath.Join("testdata", tc.golden)
		if *updateGolden {
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: missing golden (run with -update-golden): %v", tc.algo, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: output diverged from %s\n--- got ---\n%s--- want ---\n%s",
				tc.algo, path, got, want)
		}
	}
}

// TestGoldenNormalization pins the normalizer itself so a regression there
// cannot silently make the golden comparison vacuous.
func TestGoldenNormalization(t *testing.T) {
	in := "truss index built in 1.234ms (max trussness 4)\nLCTC found a 4-truss community in 567µs\n"
	want := "truss index built in <dur> (max trussness 4)\nLCTC found a 4-truss community in <dur>\n"
	if got := string(normalizeOutput([]byte(in))); got != want {
		t.Fatalf("normalize:\n got %q\nwant %q", got, want)
	}
}
