package core

import (
	"math/bits"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/trussindex"
)

// checkAnswer holds a Community's stored shape to a recomputation on its own
// Subgraph: the vertex list, the edge count, dist(H, Q) by
// graph.GraphQueryDistance (-1 when some vertex misses a query vertex), the
// density, that each call builds a private overlay of the index's graph,
// and that the edge bits hold one bit per answer edge in at most the index's
// edge count of bits.
func checkAnswer(t *testing.T, head string, g *graph.Graph, c *Community) {
	t.Helper()
	if words := len(c.edges); words > (g.M()+63)/64 {
		t.Errorf("%s: %d edge-bit words, more than the index's %d edges need", head, words, g.M())
	}
	pop := 0
	for _, w := range c.edges {
		pop += bits.OnesCount64(w)
	}
	if pop != c.M() {
		t.Errorf("%s: %d edge bits set, community has %d edges", head, pop, c.M())
	}
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

// TestHandBackQueryVertexOutsideComponent hands back a peeled graph in which
// the query vertex 3 sits in a fragment {3, 4} apart from q[0]'s component
// {1, 2, 5, 6}. Vertex 3 sorts between component vertices and has forward
// arcs in the index's graph, so it must take its place in the edge-bit
// layout, with its bits clear: the answer is the component's edges plus 3,
// isolated, and the fragment's edge 3-4 stays out.
func TestHandBackQueryVertexOutsideComponent(t *testing.T) {
	g := graph.FromEdges(8, [][2]int{
		{0, 1}, {0, 3}, {1, 2}, {1, 5}, {2, 3}, {2, 5}, {3, 4}, {3, 7}, {4, 6}, {5, 6},
	})
	ix := trussindex.Build(g)
	ws := ix.AcquireWorkspace()
	defer ws.Release()
	x := ws.Expansion()
	verts := []int32{1, 2, 3, 4, 5, 6}
	member := graph.NewStamp(g.N())
	member.Next()
	for _, v := range verts {
		member.Set(v)
	}
	arcs := func(v int) ([]int32, []int32) { return g.Neighbors(v), g.NeighborEdgeIDs(v) }
	if err := x.Build(verts, member, make([]int32, g.N()), arcs, nil); err != nil {
		t.Fatal(err)
	}
	q := []int{2, 3}
	x.SetQuery(q)
	best := x.Whole()
	for _, e := range [][2]int{{2, 3}, {4, 6}} {
		if !best.DeleteEdge(x.Local(e[0]), x.Local(e[1])) {
			t.Fatalf("edge %v is not in the expansion", e)
		}
	}
	var c Community
	handBack(&c, "LCTC", 3, q, best, x, g, ws)

	if want := []int{1, 2, 3, 5, 6}; !reflect.DeepEqual(c.Vertices(), want) {
		t.Fatalf("vertices %v, want %v", c.Vertices(), want)
	}
	if c.N() != 5 || c.M() != 4 || c.QueryDist() != -1 {
		t.Fatalf("N, M, QueryDist = %d, %d, %d; want 5, 4, -1", c.N(), c.M(), c.QueryDist())
	}
	sub := c.Subgraph()
	want := []graph.EdgeKey{graph.Key(1, 2), graph.Key(1, 5), graph.Key(2, 5), graph.Key(5, 6)}
	if got := sub.EdgeKeys(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Subgraph edges %v, want %v", got, want)
	}
	if !sub.Present(3) || sub.Degree(3) != 0 {
		t.Fatalf("query vertex 3: present %v, degree %d; want present and isolated", sub.Present(3), sub.Degree(3))
	}
	checkAnswer(t, "outside query vertex", g, &c)
}
