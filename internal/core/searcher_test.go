package core

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/exact"
	"repro/internal/graph"
	"repro/internal/truss"
	"repro/internal/trussindex"
)

// paperGraph is Figure 1(a); q1=0 q2=1 q3=2 v1=3 v2=4 v3=5 v4=6 v5=7
// p1=8 p2=9 p3=10 t=11.
func paperGraph() *graph.Graph {
	edges := [][2]int{
		{0, 1}, {0, 3}, {0, 4}, {1, 3}, {1, 4}, {3, 4},
		{5, 6}, {5, 7}, {6, 7}, {2, 5}, {2, 6}, {2, 7},
		{1, 7}, {4, 7}, {1, 6}, {1, 5}, {3, 7},
		{2, 8}, {2, 9}, {2, 10}, {8, 9}, {8, 10}, {9, 10},
		{0, 11}, {11, 2},
	}
	return graph.FromEdges(12, edges)
}

func randomGraph(seed int64, n int, p float64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n, 0)
	b.EnsureVertex(n - 1)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				b.AddEdge(u, v)
			}
		}
	}
	return b.Build()
}

func paperSearcher() *Searcher {
	return NewSearcher(trussindex.Build(paperGraph()))
}

// search runs req through Search and returns its community.
func search(s *Searcher, req Request) (*Community, error) {
	res, err := s.Search(context.Background(), req)
	if err != nil {
		return nil, err
	}
	return &res.Community, nil
}

func TestBasicPaperExample4(t *testing.T) {
	// Example 4: Basic on Figure 1(a) with Q={q1,q2,q3} outputs Figure 1(b):
	// the 4-truss without p1,p2,p3, query distance 3, diameter 3 (optimal).
	s := paperSearcher()
	c, err := search(s, Request{Q: []int{0, 1, 2}, Algo: AlgoBasic, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	if c.K != 4 {
		t.Fatalf("k = %d, want 4", c.K)
	}
	if c.N() != 8 {
		t.Fatalf("|V| = %d, want 8 (Figure 1(b))", c.N())
	}
	for _, v := range []int{8, 9, 10, 11} {
		if c.Contains(v) {
			t.Fatalf("free rider %d survived Basic", v)
		}
	}
	if c.QueryDist() != 3 {
		t.Fatalf("query distance = %d, want 3", c.QueryDist())
	}
	if c.Diameter() != 3 {
		t.Fatalf("diameter = %d, want 3", c.Diameter())
	}
}

func TestBulkDeletePaperExample7(t *testing.T) {
	// Example 7: BulkDelete computes d=4, deletes L={q1,q3,p1,p2,p3} in one
	// shot, which disconnects Q, so it reports the entire 4-truss G0 with
	// diameter 4.
	s := paperSearcher()
	c, err := search(s, Request{Q: []int{0, 1, 2}, Algo: AlgoBulkDelete, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	if c.K != 4 {
		t.Fatalf("k = %d, want 4", c.K)
	}
	if c.N() != 11 {
		t.Fatalf("|V| = %d, want 11 (all of G0)", c.N())
	}
	if c.Diameter() != 4 {
		t.Fatalf("diameter = %d, want 4", c.Diameter())
	}
}

func TestLCTCPaperQuery(t *testing.T) {
	// LCTC's L' rule removes only the furthest nodes (p1,p2,p3 at distance
	// 4), recovering the Figure 1(b) community like Basic does.
	s := paperSearcher()
	c, err := search(s, Request{Q: []int{0, 1, 2}, Algo: AlgoLCTC, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	if c.K != 4 {
		t.Fatalf("k = %d, want 4", c.K)
	}
	if c.N() != 8 {
		t.Fatalf("|V| = %d, want 8", c.N())
	}
	if c.Diameter() != 3 {
		t.Fatalf("diameter = %d, want 3", c.Diameter())
	}
}

func TestTrussOnlyBaseline(t *testing.T) {
	s := paperSearcher()
	c, err := search(s, Request{Q: []int{0, 1, 2}, Algo: AlgoTrussOnly, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	if c.N() != 11 || c.K != 4 {
		t.Fatalf("Truss baseline: N=%d k=%d, want 11 and 4", c.N(), c.K)
	}
	if c.Diameter() != 4 {
		t.Fatalf("G0 diameter = %d, want 4", c.Diameter())
	}
}

func TestSingleQueryVertex(t *testing.T) {
	s := paperSearcher()
	for _, algo := range []Algo{AlgoBasic, AlgoBulkDelete, AlgoLCTC} {
		c, err := search(s, Request{Q: []int{2}, Algo: algo, Verify: true})
		if err != nil {
			t.Fatal(err)
		}
		if c.K != 4 {
			t.Fatalf("%s: k = %d, want 4", c.Algorithm, c.K)
		}
		if !c.Contains(2) {
			t.Fatalf("%s: query vertex missing", c.Algorithm)
		}
		// The optimal is a diameter-1 4-clique; all algorithms should get
		// within factor 2.
		if c.Diameter() > 2 {
			t.Fatalf("%s: diameter %d > 2·OPT = 2", c.Algorithm, c.Diameter())
		}
	}
}

func TestLowTrussnessQuery(t *testing.T) {
	// Q={t, q1}: only a 2-truss connects them (via the pendant edges).
	s := paperSearcher()
	c, err := search(s, Request{Q: []int{11, 0}, Algo: AlgoBasic, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	if c.K != 2 {
		t.Fatalf("k = %d, want 2", c.K)
	}
	if !c.Contains(11) || !c.Contains(0) {
		t.Fatal("query vertices missing")
	}
}

func TestInfeasibleQuery(t *testing.T) {
	g := graph.FromEdges(5, [][2]int{{0, 1}, {2, 3}})
	s := NewSearcher(trussindex.Build(g))
	for _, algo := range []Algo{AlgoBasic, AlgoBulkDelete, AlgoLCTC, AlgoTrussOnly} {
		if _, err := search(s, Request{Q: []int{0, 2}, Algo: algo}); err == nil {
			t.Fatal("disconnected query must fail")
		}
	}
}

func TestFixedKVariant(t *testing.T) {
	s := paperSearcher()
	// At fixed k=2 for Q={q1,q2,q3} the 2-truss G0 includes t, allowing a
	// smaller diameter than the 4-truss answer.
	c2, err := search(s, Request{Q: []int{0, 1, 2}, Algo: AlgoBasic, K: 2, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	if c2.K != 2 {
		t.Fatalf("k = %d, want 2", c2.K)
	}
	if c2.Diameter() > 3 {
		t.Fatalf("2-truss community diameter = %d, should be <= 3", c2.Diameter())
	}
	// Fixed k above the feasible maximum fails.
	if _, err := search(s, Request{Q: []int{0, 1, 2}, Algo: AlgoBasic, K: 5}); err == nil {
		t.Fatal("fixed k=5 must fail")
	}
	// LCTC honors the cap too.
	c3, err := search(s, Request{Q: []int{0, 1, 2}, K: 3, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	if c3.K > 3 {
		t.Fatalf("LCTC fixed-k: k = %d, want <= 3", c3.K)
	}
	// K=1 is clamped to 2 through the whole pipeline: the community must be
	// identical to the K=2 run (same reported K, so the maintenance cascade
	// enforced support >= 0, not a vacuous negative bound) and must pass
	// verification as a 2-truss. K = 0 maximizes k instead.
	c1, err := search(s, Request{Q: []int{0, 1, 2}, Algo: AlgoBasic, K: 1, Verify: true})
	if err != nil {
		t.Fatalf("K=1: %v", err)
	}
	if c1.K != 2 || c1.N() != c2.N() || c1.M() != c2.M() {
		t.Fatalf("K=1: (k=%d n=%d m=%d), want the K=2 result (k=2 n=%d m=%d)",
			c1.K, c1.N(), c1.M(), c2.N(), c2.M())
	}
	cMax, err := search(s, Request{Q: []int{0, 1, 2}, Algo: AlgoBasic, Verify: true})
	if err != nil || cMax.K != 4 {
		t.Fatalf("K=0 must maximize: k=%v err=%v, want k=4", cMax.K, err)
	}
}

func TestTwoApproximationAgainstExact(t *testing.T) {
	// Theorem 3: diam(Basic) <= 2 diam(OPT) with equal trussness. Checked
	// exhaustively on random graphs small enough for the exact solver. LCTC
	// with the L' rule should obey the same bound; BD gets 2+ε with
	// ε = 2/diam(OPT).
	checked := 0
	for seed := int64(0); seed < 60 && checked < 25; seed++ {
		g := randomGraph(seed, 13, 0.35)
		rng := rand.New(rand.NewSource(seed + 500))
		q := []int{rng.Intn(13), rng.Intn(13)}
		opt, err := exact.Solve(g, q)
		if err != nil {
			continue
		}
		s := NewSearcher(trussindex.Build(g))
		basic, err := search(s, Request{Q: q, Algo: AlgoBasic, Verify: true})
		if err != nil {
			t.Fatalf("seed %d: Basic failed where exact succeeded: %v", seed, err)
		}
		if basic.K != opt.K {
			t.Fatalf("seed %d: Basic k=%d, OPT k=%d", seed, basic.K, opt.K)
		}
		if basic.Diameter() > 2*opt.Diameter {
			t.Fatalf("seed %d q=%v: Basic diameter %d > 2·OPT %d",
				seed, q, basic.Diameter(), 2*opt.Diameter)
		}
		bd, err := search(s, Request{Q: q, Algo: AlgoBulkDelete, Verify: true})
		if err != nil {
			t.Fatalf("seed %d: BD failed: %v", seed, err)
		}
		if bd.K != opt.K || bd.Diameter() > 2*opt.Diameter+2 {
			t.Fatalf("seed %d: BD k=%d diam=%d vs OPT k=%d diam=%d",
				seed, bd.K, bd.Diameter(), opt.K, opt.Diameter)
		}
		checked++
	}
	if checked < 10 {
		t.Fatalf("only %d instances checked; generator too sparse", checked)
	}
}

func TestQueryDistanceOptimality(t *testing.T) {
	// Lemma 5: Basic's output R has dist_R(R,Q) <= dist_H(H,Q) for every
	// connected k-truss H (max k) containing Q; in particular
	// dist_R(R,Q) <= dist of the exact optimum.
	for seed := int64(0); seed < 40; seed++ {
		g := randomGraph(seed, 12, 0.4)
		rng := rand.New(rand.NewSource(seed + 900))
		q := []int{rng.Intn(12), rng.Intn(12)}
		opt, err := exact.Solve(g, q)
		if err != nil {
			continue
		}
		s := NewSearcher(trussindex.Build(g))
		basic, err := search(s, Request{Q: q, Algo: AlgoBasic, Verify: true})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		sub := graph.InducedMutable(graph.NewMutable(g, nil), opt.Vertices)
		optQD, _ := graph.GraphQueryDistance(sub, q)
		if basic.QueryDist() > int(optQD) {
			// dist_R(R,Q) must not exceed the optimum's query distance.
			t.Fatalf("seed %d q=%v: Basic qd=%d > OPT qd=%d", seed, q, basic.QueryDist(), optQD)
		}
	}
}

func TestAllAlgorithmsProduceValidCommunities(t *testing.T) {
	// Randomized validity sweep: whatever the three algorithms return must
	// be a connected k-truss containing Q, with matching trussness among
	// the two exact-k algorithms.
	for seed := int64(100); seed < 130; seed++ {
		g := randomGraph(seed, 40, 0.15)
		ix := trussindex.Build(g)
		s := NewSearcher(ix)
		rng := rand.New(rand.NewSource(seed))
		q := []int{rng.Intn(40), rng.Intn(40), rng.Intn(40)}
		basic, errB := search(s, Request{Q: q, Algo: AlgoBasic, Verify: true})
		bd, errD := search(s, Request{Q: q, Algo: AlgoBulkDelete, Verify: true})
		if (errB == nil) != (errD == nil) {
			t.Fatalf("seed %d: Basic err=%v, BD err=%v", seed, errB, errD)
		}
		if errB != nil {
			continue
		}
		if basic.K != bd.K {
			t.Fatalf("seed %d: Basic k=%d != BD k=%d", seed, basic.K, bd.K)
		}
		lctc, errL := search(s, Request{Q: q, Algo: AlgoLCTC, Verify: true})
		if errL != nil {
			t.Fatalf("seed %d: LCTC failed where global methods succeeded: %v", seed, errL)
		}
		if lctc.K > basic.K {
			t.Fatalf("seed %d: LCTC k=%d exceeds the global maximum %d", seed, lctc.K, basic.K)
		}
		if lctc.Subgraph().Base() != ix.Graph() {
			t.Fatalf("seed %d: LCTC community is not an overlay of the index's graph", seed)
		}
		// Basic peels at least as much as the Truss baseline keeps.
		trussOnly, _ := search(s, Request{Q: q, Algo: AlgoTrussOnly})
		if basic.N() > trussOnly.N() {
			t.Fatalf("seed %d: Basic (%d nodes) larger than G0 (%d)", seed, basic.N(), trussOnly.N())
		}
	}
}

func TestLCTCEtaBudget(t *testing.T) {
	// A small η must cap the expansion; the community can only shrink.
	g := randomGraph(11, 60, 0.12)
	s := NewSearcher(trussindex.Build(g))
	q := []int{0, 1}
	big, errBig := search(s, Request{Q: q, Eta: 1000, Verify: true})
	small, errSmall := search(s, Request{Q: q, Eta: 8, Verify: true})
	if errBig != nil || errSmall != nil {
		t.Skipf("query infeasible on this seed: %v / %v", errBig, errSmall)
	}
	if small.N() > 8+len(q) {
		t.Fatalf("η=8 but LCTC kept %d nodes", small.N())
	}
	if small.N() > big.N() {
		t.Fatalf("smaller η produced a larger community (%d > %d)", small.N(), big.N())
	}
	// Whether the expansion was the whole graph or a frozen fragment of it,
	// the answer must not keep a per-query graph alive.
	if big.Subgraph().Base() != g || small.Subgraph().Base() != g {
		t.Fatal("LCTC community is not an overlay of the index's graph")
	}
}

func TestCommunityAccessors(t *testing.T) {
	s := paperSearcher()
	c, err := search(s, Request{Q: []int{0, 1, 2}, Algo: AlgoBasic})
	if err != nil {
		t.Fatal(err)
	}
	if c.Algorithm != "Basic" {
		t.Fatalf("algorithm = %q", c.Algorithm)
	}
	if c.Contains(99) || !c.Contains(0) {
		t.Fatal("Contains broken")
	}
	if c.Density() <= 0 || c.Density() > 1 {
		t.Fatalf("density = %f", c.Density())
	}
	if c.String() == "" {
		t.Fatal("empty String()")
	}
	if got := c.Subgraph().M(); got != c.M() {
		t.Fatalf("subgraph M=%d, community M=%d", got, c.M())
	}
	if d1, d2 := c.Diameter(), c.Diameter(); d1 != d2 {
		t.Fatal("diameter differs between calls")
	}
}

func TestDensityImprovesOverTruss(t *testing.T) {
	// The whole point of CTC: peeled communities should be at least as
	// dense as the raw G0 (they remove peripheral free riders).
	s := paperSearcher()
	q := []int{0, 1, 2}
	trussOnly, _ := search(s, Request{Q: q, Algo: AlgoTrussOnly})
	basic, _ := search(s, Request{Q: q, Algo: AlgoBasic})
	if basic.Density() < trussOnly.Density() {
		t.Fatalf("Basic density %.3f < Truss density %.3f", basic.Density(), trussOnly.Density())
	}
}

func TestVerifyCatchesCorruption(t *testing.T) {
	// Sanity-check that Verify actually exercises VerifyCommunity: a
	// community claim at k higher than real must error.
	g := paperGraph()
	mu := graph.InducedMutable(graph.NewMutable(g, nil), []int{0, 1, 3, 4})
	if err := truss.VerifyCommunity(mu, 5, []int{0}); err == nil {
		t.Fatal("bogus trussness accepted")
	}
}
