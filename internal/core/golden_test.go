package core

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"os"
	"strings"
	"sync"
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

// goldenLine renders one golden search as a line: its head and query, then
// the answer's shape, the counters that describe how it was reached, and an
// FNV-1a hash of its sorted vertex list.
func goldenLine(t *testing.T, r goldenRun) string {
	t.Helper()
	head := fmt.Sprintf("%s %s", r.head, strings.Trim(strings.ReplaceAll(fmt.Sprint(r.req.Q), " ", ","), "[]"))
	if r.err != nil {
		return fmt.Sprintf("%s err %v", head, r.err)
	}
	res := r.res
	if res.Subgraph().Base() != r.g {
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

// goldenRun is one search of the golden tables: the network's graph, the
// line head, the request and its outcome.
type goldenRun struct {
	g    *graph.Graph
	head string
	req  Request
	res  *Result
	err  error
}

// golden holds every golden search, run once per test binary and shared by
// TestLCTCGolden, TestGlobalGolden and TestAnswerMatchesSubgraph: lctc in
// testdata/lctc_golden.txt's order, global in testdata/global_golden.txt's.
var golden struct {
	once         sync.Once
	built        bool
	lctc, global []goldenRun
}

// goldenSearches builds the facebook and dblp networks once and answers the
// golden queries on them: every query with LCTC, and goldenGlobal's leading
// queries with each global algorithm.
func goldenSearches(tb testing.TB) (lctc, global []goldenRun) {
	tb.Helper()
	golden.once.Do(func() {
		ctx := context.Background()
		for i, name := range []string{"facebook", "dblp"} {
			g, s, qs := goldenQueries(tb, name)
			run := func(head string, req Request) goldenRun {
				res, err := s.Search(ctx, req)
				return goldenRun{g: g, head: head, req: req, res: res, err: err}
			}
			for _, q := range qs {
				golden.lctc = append(golden.lctc, run(name, Request{Q: q}))
			}
			for _, c := range goldenGlobal {
				for _, q := range qs[:c.count[i]] {
					golden.global = append(golden.global, run(c.algo.String()+" "+name, Request{Q: q, Algo: c.algo}))
				}
			}
		}
		golden.built = true
	})
	if !golden.built {
		tb.Fatal("the golden networks failed to build")
	}
	return golden.lctc, golden.global
}

// goldenLines renders runs, one goldenLine each.
func goldenLines(t *testing.T, runs []goldenRun) []string {
	t.Helper()
	lines := make([]string, len(runs))
	for i, r := range runs {
		lines[i] = goldenLine(t, r)
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
	_, global := goldenSearches(t)
	got := goldenLines(t, global)
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
	lctc, _ := goldenSearches(t)
	got := goldenLines(t, lctc)
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
