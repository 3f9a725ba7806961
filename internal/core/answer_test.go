package core

import (
	"context"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/truss"
	"repro/internal/trussindex"
)

// checkAnswer holds a Community's stored shape to a recomputation on its own
// Subgraph: the vertex list, the edge count, dist(H, Q) by
// graph.GraphQueryDistance (-1 when some vertex misses a query vertex), the
// density, that each call builds a private overlay of the index's graph, and
// that Vertices hands out a fresh slice.
func checkAnswer(t *testing.T, head string, g *graph.Graph, c *Community) {
	t.Helper()
	sub := c.Subgraph()
	if sub.Base() != g {
		t.Errorf("%s: Subgraph is not an overlay of the index's graph", head)
	}
	if got := sub.Vertices(); !reflect.DeepEqual(got, c.Vertices()) {
		t.Errorf("%s: Subgraph has vertices %v, community %v", head, got, c.Vertices())
	}
	if sub.N() != c.N() || sub.M() != c.M() {
		t.Errorf("%s: Subgraph has %d vertices and %d edges, community %d and %d", head, sub.N(), sub.M(), c.N(), c.M())
	}
	qd, all := graph.GraphQueryDistance(sub, c.Query)
	want := int(qd)
	if !all {
		want = -1
	}
	if c.QueryDist() != want {
		t.Errorf("%s: QueryDist %d, Subgraph's %d", head, c.QueryDist(), want)
	}
	if n := float64(sub.N()); n >= 2 {
		if d := 2 * float64(sub.M()) / (n * (n - 1)); c.Density() != d {
			t.Errorf("%s: Density %v, Subgraph's %v", head, c.Density(), d)
		}
	} else if c.Density() != 0 {
		t.Errorf("%s: Density %v of a single vertex", head, c.Density())
	}
	again := c.Subgraph()
	if again == sub || !reflect.DeepEqual(again.EdgeKeys(), sub.EdgeKeys()) {
		t.Errorf("%s: two Subgraph calls share an overlay or differ in edges", head)
	}
	if vs := c.Vertices(); len(vs) > 0 {
		vs[0] = -1
		if c.Vertices()[0] == -1 {
			t.Errorf("%s: Vertices shares its slice between calls", head)
		}
	}
}

// TestAnswerMatchesSubgraph checks that the answers handed back from the
// peel's compact graph describe exactly the subgraph Subgraph re-derives, on
// every LCTC golden query and every query global_golden.txt pins. The goldens
// pin n and m but not the query distance.
func TestAnswerMatchesSubgraph(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the facebook and dblp networks")
	}
	lctc, global := goldenSearches(t)
	for _, runs := range [][]goldenRun{lctc, global} {
		for _, r := range runs {
			if r.err == nil {
				checkAnswer(t, r.head+" "+r.req.Algo.String(), r.g, &r.res.Community)
			}
		}
	}
}

// TestAnswerIsInducedKTruss answers random requests — every algorithm, the
// maximum or a fixed K, truss or hop distance, a random η — on random graphs
// and on the golden facebook and dblp networks, and holds each answer to the
// subgraph Subgraph re-derives from its vertex set: the same vertices, the
// same edge count and, when every vertex reaches Q, a connected K-truss
// containing Q. On the networks only LCTC and TrussOnly run: a random
// query's G0 there spans thousands of vertices, and peeling it takes Basic
// or BulkDelete a tenth of a second or more.
func TestAnswerIsInducedKTruss(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the facebook and dblp networks")
	}
	goldenSearches(t)
	searchers := slices.Clone(golden.searchers)
	networks := len(searchers)
	for seed := int64(0); seed < 60; seed++ {
		g := randomGraph(1000+seed, 30+int(seed%3)*10, 0.15+0.02*float64(seed%5))
		searchers = append(searchers, NewSearcher(trussindex.Build(g)))
	}
	rng := rand.New(rand.NewSource(45))
	ctx := context.Background()
	answers, peeled := 0, 0
	for i, s := range searchers {
		g := s.Index().Graph()
		for range 25 {
			req := Request{Algo: Algo(rng.Intn(int(algoEnd)))}
			if i < networks && (req.Algo == AlgoBasic || req.Algo == AlgoBulkDelete) {
				req.Algo = AlgoLCTC
			}
			for range 1 + rng.Intn(3) {
				req.Q = append(req.Q, rng.Intn(g.N()))
			}
			if rng.Intn(2) == 0 {
				req.K = int32(2 + rng.Intn(4))
			}
			if rng.Intn(2) == 0 {
				req.DistanceMode = DistHop
			}
			if rng.Intn(2) == 0 {
				req.Eta = 1 + rng.Intn(300)
			}
			res, err := s.Search(ctx, req)
			if err != nil {
				continue
			}
			answers++
			c := &res.Community
			if inducedEdges(c) != c.M() {
				peeled++
			}
			sub := c.Subgraph()
			if !slices.Equal(sub.Vertices(), c.Vertices()) || sub.M() != c.M() {
				t.Errorf("%+v: answer of %d vertices and %d edges re-derives as %d and %d",
					req, c.N(), c.M(), sub.N(), sub.M())
				continue
			}
			if c.QueryDist() >= 0 {
				if err := truss.VerifyCommunity(sub, c.K, c.Query); err != nil {
					t.Errorf("%+v: %v", req, err)
				}
			}
		}
	}
	if answers < 300 || peeled == 0 {
		t.Fatalf("%d answers, %d of them re-derived through the peel; the check covers too little", answers, peeled)
	}
	t.Logf("%d answers, %d re-derived through the peel", answers, peeled)
}

// inducedEdges counts the edges of trussness >= c.t between c's vertices:
// what Subgraph starts from before it peels.
func inducedEdges(c *Community) int {
	vs := c.Vertices()
	m := 0
	for _, v := range vs {
		nbrs, eids := c.g.Neighbors(v), c.g.NeighborEdgeIDs(v)
		for j, w := range nbrs {
			if int(w) > v && c.tau[eids[j]] >= c.t {
				if _, in := slices.BinarySearch(vs, int(w)); in {
					m++
				}
			}
		}
	}
	return m
}

// TestHandBackQueryVertexOutsideComponent hands back a state the peel can
// reach. The expansion X = {1, ..., 8} of a graph whose every edge has
// trussness 3 loses vertex 8; the maximal 3-truss of what is left splits
// into q[0]'s component {1, 2, 5, 6} and the triangle {3, 4, 7} around the
// query vertex 3, the edge 2-3 losing its only triangle 2-3-8. The answer is
// the component plus 3, isolated, with QueryDist -1. Its vertices induce the
// edge 2-3, so Subgraph must peel it off and keep 3 listed.
func TestHandBackQueryVertexOutsideComponent(t *testing.T) {
	g := graph.FromEdges(9, [][2]int{
		{0, 1}, {0, 2}, {1, 2}, {1, 5}, {2, 5}, {2, 6}, {5, 6},
		{3, 4}, {3, 7}, {4, 7}, {2, 3}, {2, 8}, {3, 8},
	})
	ix := trussindex.Build(g)
	for e := int32(0); e < int32(g.M()); e++ {
		if tau := ix.EdgeTrussByID(e); tau != 3 {
			t.Fatalf("edge %s has trussness %d, want 3", g.EdgeKeyOf(e), tau)
		}
	}
	s := NewSearcher(ix)
	ws := ix.AcquireWorkspace()
	defer ws.Release()
	x := ws.Expansion()
	verts := []int32{1, 2, 3, 4, 5, 6, 7, 8}
	member := graph.NewStamp(g.N())
	member.Next()
	for _, v := range verts {
		member.Set(v)
	}
	arcs := func(v int) ([]int32, []int32) { return ix.NeighborsAtLeast(v, 3) }
	if err := x.Build(verts, member, make([]int32, g.N()), arcs, nil); err != nil {
		t.Fatal(err)
	}
	q := []int{2, 3}
	x.SetQuery(q)
	best := x.Whole()
	best.DeleteVertex(x.Local(8))
	if !best.DeleteEdge(x.Local(2), x.Local(3)) {
		t.Fatal("edge 2-3 is not in the expansion")
	}
	if !truss.IsKTruss(best, 3) {
		t.Fatal("the handed-back graph is not a 3-truss")
	}
	var c Community
	handBack(&c, "LCTC", 3, 3, q, best, x, g, s.tau, ws)

	if want := []int{1, 2, 3, 5, 6}; !reflect.DeepEqual(c.Vertices(), want) {
		t.Fatalf("vertices %v, want %v", c.Vertices(), want)
	}
	if c.N() != 5 || c.M() != 5 || c.QueryDist() != -1 {
		t.Fatalf("N, M, QueryDist = %d, %d, %d; want 5, 5, -1", c.N(), c.M(), c.QueryDist())
	}
	if inducedEdges(&c) != 6 {
		t.Fatalf("the answer's vertices induce %d edges, want 6 (2-3 included)", inducedEdges(&c))
	}
	sub := c.Subgraph()
	want := []graph.EdgeKey{graph.Key(1, 2), graph.Key(1, 5), graph.Key(2, 5), graph.Key(2, 6), graph.Key(5, 6)}
	if got := sub.EdgeKeys(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Subgraph edges %v, want %v", got, want)
	}
	if !sub.Present(3) || sub.Degree(3) != 0 {
		t.Fatalf("query vertex 3: present %v, degree %d; want present and isolated", sub.Present(3), sub.Degree(3))
	}
	checkAnswer(t, "outside query vertex", g, &c)
}

// TestVerifyResultChecksStoredShape hands verifyResult a valid answer and
// then the same answer with its edge count off by one either way: the
// re-derived subgraph is a connected K-truss containing Q in every case, so
// only the comparison with the stored shape can refuse the last two.
func TestVerifyResultChecksStoredShape(t *testing.T) {
	res, err := paperSearcher().Search(context.Background(), Request{Q: []int{0, 1, 2}, Algo: AlgoBasic})
	if err != nil {
		t.Fatal(err)
	}
	if err := verifyResult(res); err != nil {
		t.Fatalf("valid answer refused: %v", err)
	}
	for _, d := range []int{-1, 1} {
		bad := *res
		bad.m += d
		if err := verifyResult(&bad); err == nil {
			t.Errorf("answer with M %d (re-derived %d) passed verification", bad.M(), res.M())
		}
	}
}
