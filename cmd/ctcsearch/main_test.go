package main

import (
	"io"
	"os"
	"path/filepath"
	"testing"
)

func TestParseQuery(t *testing.T) {
	q, err := parseQuery("1, 2,3")
	if err != nil || len(q) != 3 || q[0] != 1 || q[2] != 3 {
		t.Fatalf("q=%v err=%v", q, err)
	}
	if _, err := parseQuery(""); err == nil {
		t.Fatal("empty query accepted")
	}
	if _, err := parseQuery("1,x"); err == nil {
		t.Fatal("junk query accepted")
	}
}

func writeTempGraph(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "g.txt")
	content := "# test graph: K5 plus pendant\n0 1\n0 2\n0 3\n0 4\n1 2\n1 3\n1 4\n2 3\n2 4\n3 4\n4 5\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestLoadGraph(t *testing.T) {
	path := writeTempGraph(t)
	g, err := loadGraph(path, "")
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 6 || g.M() != 11 {
		t.Fatalf("N=%d M=%d", g.N(), g.M())
	}
	if _, err := loadGraph("", ""); err == nil {
		t.Fatal("no source accepted")
	}
	if _, err := loadGraph(path, "dblp"); err == nil {
		t.Fatal("both sources accepted")
	}
	if _, err := loadGraph("/does/not/exist", ""); err == nil {
		t.Fatal("missing file accepted")
	}
	if _, err := loadGraph("", "nonesuch"); err == nil {
		t.Fatal("unknown network accepted")
	}
}

func TestRunEndToEnd(t *testing.T) {
	path := writeTempGraph(t)
	for _, algo := range []string{"lctc", "basic", "bd", "truss"} {
		if err := run(io.Discard, path, "", "0,1", algo, 0, 0, 0, 0, true, true, ""); err != nil {
			t.Fatalf("algo %s: %v", algo, err)
		}
	}
	for _, algo := range []string{"nope", "dtruss"} {
		if err := run(io.Discard, path, "", "0,1", algo, 0, 0, 0, 0, false, false, ""); err == nil {
			t.Fatalf("unknown algorithm %q accepted", algo)
		}
	}
	if err := run(io.Discard, path, "", "", "lctc", 0, 0, 0, 0, false, false, ""); err == nil {
		t.Fatal("missing query accepted")
	}
	// Fixed-k and LCTC knobs.
	if err := run(io.Discard, path, "", "0,1", "lctc", 3, 50, 2, 0, false, true, filepath.Join(t.TempDir(), "c.dot")); err != nil {
		t.Fatalf("fixed-k run: %v", err)
	}
	// Infeasible fixed k.
	if err := run(io.Discard, path, "", "0,5", "basic", 5, 0, 0, 0, false, false, ""); err == nil {
		t.Fatal("infeasible k accepted")
	}
}
