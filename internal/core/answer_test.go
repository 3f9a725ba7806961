package core

import (
	"reflect"
	"testing"

	"repro/internal/graph"
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
// peel's compact graph describe exactly the subgraph Subgraph rebuilds, on
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
