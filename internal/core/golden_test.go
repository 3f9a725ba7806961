package core

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"os"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/trussindex"
)

// goldenQueries returns one golden network's searcher and query set: the
// first 100 uniform random vertex pairs on facebook, the first 100
// ground-truth queries of 2–4 vertices on dblp, both drawn from
// gen.NewRNG(1).
func goldenQueries(tb testing.TB, name string) (*graph.Graph, *Searcher, [][]int) {
	tb.Helper()
	nw, err := gen.NetworkByName(name)
	if err != nil {
		tb.Fatal(err)
	}
	g := nw.Graph()
	rng := gen.NewRNG(1)
	var qs [][]int
	if name == "facebook" {
		for i := 0; i < 100; i++ {
			qs = append(qs, gen.RandomQuery(g, rng, 2))
		}
	} else {
		for _, gq := range gen.QueriesFromGroundTruth(rng, nw.GroundTruth(), 100, 2, 4) {
			qs = append(qs, gq.Q)
		}
	}
	return g, NewSearcher(trussindex.Build(g)), qs
}

// goldenLine answers q with req on s and renders one line: head, then the
// answer's shape, the counters that describe how it was reached, and an
// FNV-1a hash of its sorted vertex list.
func goldenLine(t *testing.T, g *graph.Graph, s *Searcher, head string, req Request) string {
	t.Helper()
	head = fmt.Sprintf("%s %s", head, strings.Trim(strings.ReplaceAll(fmt.Sprint(req.Q), " ", ","), "[]"))
	res, err := s.Search(context.Background(), req)
	if err != nil {
		return fmt.Sprintf("%s err %v", head, err)
	}
	if res.Subgraph().Base() != g {
		t.Errorf("%s: community is not an overlay of the index's graph", head)
	}
	h := fnv.New64a()
	var buf [8]byte
	for _, v := range res.Vertices() {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	st := res.Stats
	return fmt.Sprintf("%s k=%d n=%d m=%d seed_edges=%d peel_rounds=%d edges_peeled=%d vhash=%016x",
		head, res.K, res.N(), res.M(), st.SeedEdges, st.PeelRounds, st.EdgesPeeled, h.Sum64())
}

// goldenLCTCLines answers the golden query sets with LCTC, one goldenLine
// per query.
func goldenLCTCLines(t *testing.T) []string {
	t.Helper()
	var lines []string
	for _, name := range []string{"facebook", "dblp"} {
		g, s, qs := goldenQueries(t, name)
		for _, q := range qs {
			lines = append(lines, goldenLine(t, g, s, name, Request{Q: q}))
		}
	}
	return lines
}

// goldenGlobal lists, per global algorithm, how many leading queries of each
// golden query set (facebook, dblp) testdata/global_golden.txt covers. Basic
// stops at ten facebook queries: a full pass takes tens of seconds.
var goldenGlobal = []struct {
	algo  Algo
	count [2]int
}{
	{AlgoTrussOnly, [2]int{100, 100}},
	{AlgoBulkDelete, [2]int{25, 25}},
	{AlgoBasic, [2]int{10, 0}},
}

// goldenGlobalLines answers goldenGlobal's queries, one goldenLine per query
// headed by the algorithm's name.
func goldenGlobalLines(t *testing.T) []string {
	t.Helper()
	var lines []string
	for i, name := range []string{"facebook", "dblp"} {
		g, s, qs := goldenQueries(t, name)
		for _, c := range goldenGlobal {
			for _, q := range qs[:c.count[i]] {
				lines = append(lines, goldenLine(t, g, s, c.algo.String()+" "+name, Request{Q: q, Algo: c.algo}))
			}
		}
	}
	return lines
}

// readGoldenLines reads a golden table, one line per entry.
func readGoldenLines(t *testing.T, path string) []string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var lines []string
	for sc := bufio.NewScanner(f); sc.Scan(); {
		lines = append(lines, sc.Text())
	}
	return lines
}

// TestGlobalGolden pins TrussOnly, BulkDelete and Basic to
// testdata/global_golden.txt. Every field must match, the work counters
// included: the facebook queries peel graphs small enough for bit rows and
// the dblp ones graphs that need the merge kernels, so a change of peel
// substrate or kernel that alters a single decision shows up here.
func TestGlobalGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the facebook and dblp networks")
	}
	want := readGoldenLines(t, "testdata/global_golden.txt")
	got := goldenGlobalLines(t)
	if len(got) != len(want) {
		t.Fatalf("golden table has %d lines, computed %d", len(want), len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("line %d:\n got  %s\n want %s", i+1, got[i], want[i])
		}
	}
}

// TestLCTCGolden pins LCTC's answers to testdata/lctc_golden.txt, recorded
// on commit e17b002 — before the seed, the expansion decomposition and the
// peel stopped doing the work that used to cross-check them. The answer
// fields (k, n, m, seed_edges, vhash) must match exactly: a change to LCTC
// that moves one is a change of answers, not an optimisation. The work
// counters (peel_rounds, edges_peeled) may only fall — the peel stops once
// no later round can win, which the recording predates.
func TestLCTCGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the facebook and dblp networks")
	}
	want := readGoldenLines(t, "testdata/lctc_golden.txt")
	got := goldenLCTCLines(t)
	if len(got) != len(want) || len(want) != 200 {
		t.Fatalf("golden table has %d lines, computed %d, want 200 each", len(want), len(got))
	}
	for i := range want {
		gotAns, gotWork := splitGoldenLine(got[i])
		wantAns, wantWork := splitGoldenLine(want[i])
		if gotAns != wantAns || gotWork[0] > wantWork[0] || gotWork[1] > wantWork[1] {
			t.Errorf("line %d:\n got  %s\n want %s", i+1, got[i], want[i])
		}
	}
}

// splitGoldenLine separates a golden line into its answer (the line without
// the two work counters) and the counters [peel_rounds, edges_peeled].
func splitGoldenLine(line string) (answer string, work [2]int) {
	var kept []string
	for _, f := range strings.Fields(line) {
		switch {
		case strings.HasPrefix(f, "peel_rounds="):
			fmt.Sscanf(f, "peel_rounds=%d", &work[0])
		case strings.HasPrefix(f, "edges_peeled="):
			fmt.Sscanf(f, "edges_peeled=%d", &work[1])
		default:
			kept = append(kept, f)
		}
	}
	return strings.Join(kept, " "), work
}
