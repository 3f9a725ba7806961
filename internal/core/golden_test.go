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
	"repro/internal/trussindex"
)

// goldenLCTCLines answers the golden query set — the first 100 uniform
// random vertex pairs on facebook and the first 100 ground-truth queries of
// 2–4 vertices on dblp, both drawn from gen.NewRNG(1) — and renders one line
// per query: the answer's shape, the counters that describe how it was
// reached, and an FNV-1a hash of its sorted vertex list.
func goldenLCTCLines(t *testing.T) []string {
	t.Helper()
	var lines []string
	for _, name := range []string{"facebook", "dblp"} {
		nw, err := gen.NetworkByName(name)
		if err != nil {
			t.Fatal(err)
		}
		g := nw.Graph()
		s := NewSearcher(trussindex.Build(g))
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
		for _, q := range qs {
			head := fmt.Sprintf("%s %s", name, strings.Trim(strings.ReplaceAll(fmt.Sprint(q), " ", ","), "[]"))
			res, err := s.Search(context.Background(), Request{Q: q})
			if err != nil {
				lines = append(lines, fmt.Sprintf("%s err %v", head, err))
				continue
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
			lines = append(lines, fmt.Sprintf("%s k=%d n=%d m=%d seed_edges=%d peel_rounds=%d edges_peeled=%d vhash=%016x",
				head, res.K, res.N(), res.M(), st.SeedEdges, st.PeelRounds, st.EdgesPeeled, h.Sum64()))
		}
	}
	return lines
}

// TestLCTCGolden pins LCTC's answers to testdata/lctc_golden.txt, recorded
// on commit e17b002 — before the seed, the expansion decomposition and the
// peel stopped doing the work that used to cross-check them. A change to
// LCTC that moves any line is a change of answers, not an optimisation.
func TestLCTCGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the facebook and dblp networks")
	}
	f, err := os.Open("testdata/lctc_golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	for sc := bufio.NewScanner(f); sc.Scan(); {
		want = append(want, sc.Text())
	}
	got := goldenLCTCLines(t)
	if len(got) != len(want) || len(want) != 200 {
		t.Fatalf("golden table has %d lines, computed %d, want 200 each", len(want), len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("line %d:\n got  %s\n want %s", i+1, got[i], want[i])
		}
	}
}
