package core

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/trussindex"
)

// checkAnswer holds a Community's stored shape to a recomputation on its own
// Subgraph: the vertex list, the edge count, dist(H, Q) by
// graph.GraphQueryDistance (-1 when some vertex misses a query vertex), the
// density, and that each call builds a private overlay of the index's graph.
func checkAnswer(t *testing.T, head string, g *graph.Graph, c *Community) {
	t.Helper()
	sub := c.Subgraph()
	if sub.Base() != g {
		t.Errorf("%s: Subgraph is not an overlay of the index's graph", head)
	}
	if got := sub.Vertices(); !reflect.DeepEqual(got, c.Vertices()) {
		t.Errorf("%s: Subgraph has vertices %v, community %v", head, got, c.Vertices())
	}
	if sub.M() != c.M() {
		t.Errorf("%s: Subgraph has %d edges, community %d", head, sub.M(), c.M())
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
}

// TestAnswerMatchesSubgraph checks that the answers handed back from the
// peel's compact graph — and the models' overlays of the index's graph —
// describe exactly the subgraph Subgraph rebuilds, on every LCTC golden
// query, every query global_golden.txt pins, and every model of
// TestModelDispatch. The goldens pin n and m but not the query distance.
func TestAnswerMatchesSubgraph(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the facebook and dblp networks")
	}
	ctx := context.Background()
	for i, name := range []string{"facebook", "dblp"} {
		g, s, qs := goldenQueries(t, name)
		check := func(algo Algo, qs [][]int) {
			for _, q := range qs {
				if res, err := s.Search(ctx, Request{Q: q, Algo: algo}); err == nil {
					checkAnswer(t, name+" "+algo.String(), g, &res.Community)
				}
			}
		}
		check(AlgoLCTC, qs)
		for _, c := range goldenGlobal {
			check(c.algo, qs[:c.count[i]])
		}
	}

	g := modelTestGraph()
	s := NewSearcher(trussindex.Build(g))
	for _, req := range []Request{
		{Q: []int{0, 1}, Algo: AlgoDTruss},
		{Q: []int{0}, Algo: AlgoDTruss, Direction: DirLowHigh},
		{Q: []int{0}, Algo: AlgoDTruss, Direction: DirHighLow},
		{Q: []int{0}, Algo: AlgoDTruss, Direction: DirHash},
		{Q: []int{0, 1}, Algo: AlgoProbTruss},
		{Q: []int{0, 1}, Algo: AlgoMDC},
		{Q: []int{0, 1}, Algo: AlgoQDC},
	} {
		res, err := s.Search(ctx, req)
		if err != nil {
			t.Fatalf("%s: %v", req.Algo, err)
		}
		checkAnswer(t, req.Algo.String(), g, &res.Community)
	}
}
