package core

import (
	"math/rand"
	"testing"

	"repro/internal/trussindex"
)

// Cross-algorithm invariants derived from the paper's lemmas, checked over
// random graphs and queries.

func TestInvariantBasicQueryDistanceIsMinimal(t *testing.T) {
	// Lemma 5: Basic's output minimizes the query distance over all
	// connected max-k trusses containing Q — in particular it is <= the
	// query distance of BD's and LCTC's outputs and of G0 itself.
	for seed := int64(0); seed < 25; seed++ {
		g := randomGraph(seed, 30, 0.2)
		s := NewSearcher(trussindex.Build(g))
		rng := rand.New(rand.NewSource(seed * 7))
		q := []int{rng.Intn(30), rng.Intn(30)}
		basic, err := search(s, Request{Q: q, Algo: AlgoBasic})
		if err != nil {
			continue
		}
		bd, err := search(s, Request{Q: q, Algo: AlgoBulkDelete})
		if err != nil {
			t.Fatalf("seed %d: BD failed after Basic succeeded: %v", seed, err)
		}
		g0, err := search(s, Request{Q: q, Algo: AlgoTrussOnly})
		if err != nil {
			t.Fatal(err)
		}
		if basic.QueryDist() > bd.QueryDist() {
			t.Fatalf("seed %d q=%v: Basic qd %d > BD qd %d", seed, q, basic.QueryDist(), bd.QueryDist())
		}
		if basic.QueryDist() > g0.QueryDist() {
			t.Fatalf("seed %d q=%v: Basic qd %d > G0 qd %d", seed, q, basic.QueryDist(), g0.QueryDist())
		}
	}
}

func TestInvariantBDWithinOneOfBasic(t *testing.T) {
	// Theorem 6's core step: dist_R(R,Q) <= dist_H*(H*,Q) + 1 for BD, and
	// Basic achieves the minimum, so BD's qd <= Basic's qd + 1.
	for seed := int64(50); seed < 80; seed++ {
		g := randomGraph(seed, 26, 0.25)
		s := NewSearcher(trussindex.Build(g))
		rng := rand.New(rand.NewSource(seed))
		q := []int{rng.Intn(26), rng.Intn(26)}
		basic, err := search(s, Request{Q: q, Algo: AlgoBasic})
		if err != nil {
			continue
		}
		bd, err := search(s, Request{Q: q, Algo: AlgoBulkDelete})
		if err != nil {
			t.Fatal(err)
		}
		if bd.QueryDist() > basic.QueryDist()+1 {
			t.Fatalf("seed %d q=%v: BD qd %d > Basic qd %d + 1", seed, q, bd.QueryDist(), basic.QueryDist())
		}
	}
}

func TestInvariantDiameterWithinLemma2Bounds(t *testing.T) {
	// Lemma 2 instantiated on every algorithm's own output:
	// qd <= diam <= 2·qd.
	for seed := int64(200); seed < 220; seed++ {
		g := randomGraph(seed, 28, 0.22)
		s := NewSearcher(trussindex.Build(g))
		rng := rand.New(rand.NewSource(seed))
		q := []int{rng.Intn(28), rng.Intn(28), rng.Intn(28)}
		for _, algo := range []Algo{AlgoBasic, AlgoBulkDelete, AlgoLCTC} {
			c, err := search(s, Request{Q: q, Algo: algo})
			if err != nil {
				continue
			}
			qd, diam := c.QueryDist(), c.Diameter()
			if qd < 0 {
				t.Fatalf("seed %d: negative query distance", seed)
			}
			if diam < qd || diam > 2*qd && qd > 0 {
				t.Fatalf("seed %d %s: diam %d outside [qd=%d, 2qd=%d]", seed, c.Algorithm, diam, qd, 2*qd)
			}
		}
	}
}

func TestInvariantSubsetOfG0(t *testing.T) {
	// Every algorithm's community is a subgraph of G0 (vertices and edges).
	for seed := int64(300); seed < 315; seed++ {
		g := randomGraph(seed, 30, 0.2)
		s := NewSearcher(trussindex.Build(g))
		rng := rand.New(rand.NewSource(seed))
		q := []int{rng.Intn(30), rng.Intn(30)}
		g0, err := search(s, Request{Q: q, Algo: AlgoTrussOnly})
		if err != nil {
			continue
		}
		g0set := map[int]bool{}
		for _, v := range g0.Vertices() {
			g0set[v] = true
		}
		for _, algo := range []Algo{AlgoBasic, AlgoBulkDelete} {
			c, err := search(s, Request{Q: q, Algo: algo})
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			for _, v := range c.Vertices() {
				if !g0set[v] {
					t.Fatalf("seed %d %s: vertex %d outside G0", seed, c.Algorithm, v)
				}
			}
			sub := c.Subgraph()
			g0sub := g0.Subgraph()
			for _, e := range sub.EdgeKeys() {
				u, v := e.Endpoints()
				if !g0sub.HasEdge(u, v) {
					t.Fatalf("seed %d %s: edge %s outside G0", seed, c.Algorithm, e)
				}
			}
		}
	}
}

func TestInvariantDeterminism(t *testing.T) {
	// Same index, same query → identical results for every algorithm.
	g := randomGraph(77, 40, 0.18)
	s := NewSearcher(trussindex.Build(g))
	q := []int{3, 11, 29}
	for _, algo := range []Algo{AlgoBasic, AlgoBulkDelete, AlgoLCTC, AlgoTrussOnly} {
		a, errA := search(s, Request{Q: q, Algo: algo})
		b, errB := search(s, Request{Q: q, Algo: algo})
		if (errA == nil) != (errB == nil) {
			t.Fatalf("nondeterministic error behavior: %v vs %v", errA, errB)
		}
		if errA != nil {
			continue
		}
		if a.N() != b.N() || a.M() != b.M() || a.K != b.K {
			t.Fatalf("%s nondeterministic: (%d,%d,k%d) vs (%d,%d,k%d)",
				a.Algorithm, a.N(), a.M(), a.K, b.N(), b.M(), b.K)
		}
		av, bv := a.Vertices(), b.Vertices()
		for i := range av {
			if av[i] != bv[i] {
				t.Fatalf("%s vertex sets differ", a.Algorithm)
			}
		}
	}
}

func TestInvariantFixedKMonotonicity(t *testing.T) {
	// With smaller fixed k the G0 component can only grow, so TrussOnly's
	// size is monotone non-increasing in k.
	g := randomGraph(55, 35, 0.3)
	s := NewSearcher(trussindex.Build(g))
	q := []int{1, 2}
	prevN := 1 << 30
	for k := int32(2); k <= 6; k++ {
		c, err := search(s, Request{Q: q, Algo: AlgoTrussOnly, K: k})
		if err != nil {
			break // no community at this k or above
		}
		if c.N() > prevN {
			t.Fatalf("k=%d: community grew from %d to %d vertices", k, prevN, c.N())
		}
		prevN = c.N()
	}
}
