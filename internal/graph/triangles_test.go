package graph

import (
	"slices"
	"testing"
	"testing/quick"
)

func completeGraph(n int) *Graph {
	b := NewBuilder(n, n*(n-1)/2)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			b.AddEdge(u, v)
		}
	}
	return b.Build()
}

func TestEdgeSupportsClique(t *testing.T) {
	g := completeGraph(5)
	sup := EdgeSupports(g)
	if len(sup) != 10 {
		t.Fatalf("support entries = %d, want 10", len(sup))
	}
	for e, s := range sup {
		if s != 3 {
			t.Fatalf("sup%s = %d, want 3 in K5", g.EdgeKeyOf(int32(e)), s)
		}
	}
}

func TestEdgeSupportPaperExample(t *testing.T) {
	// Paper §2: sup(e(q2,v2)) = 3 (triangles with q1, v1, v5).
	g := paperGraph()
	sup := EdgeSupports(g)
	if got := sup[g.EdgeID(1, 4)]; got != 3 {
		t.Fatalf("sup(q2,v2) = %d, want 3", got)
	}
	// Pendant path edges (q1,t) and (t,q3) are in no triangle.
	if sup[g.EdgeID(0, 11)] != 0 || sup[g.EdgeID(2, 11)] != 0 {
		t.Fatal("pendant edges should have support 0")
	}
}

func TestTriangleCount(t *testing.T) {
	cases := []struct {
		g    *Graph
		want int64
	}{
		{completeGraph(4), 4},
		{completeGraph(5), 10},
		{completeGraph(6), 20},
		{pathGraph(10), 0},
		{FromEdges(3, [][2]int{{0, 1}, {1, 2}, {0, 2}}), 1},
	}
	for i, c := range cases {
		if got := TriangleCount(c.g); got != c.want {
			t.Fatalf("case %d: triangles = %d, want %d", i, got, c.want)
		}
	}
}

func TestSupportSumIsThreeTriangles(t *testing.T) {
	f := func(seed int64) bool {
		g := randomGraph(seed, 25, 0.3)
		var sum int64
		for _, s := range EdgeSupports(g) {
			sum += int64(s)
		}
		return sum == 3*TriangleCount(g)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestMutableSupportsMatchImmutable(t *testing.T) {
	// A full overlay shares the base's edge-ID space, so the dense support
	// arrays must match entry for entry.
	f := func(seed int64) bool {
		g := randomGraph(seed, 20, 0.3)
		want := EdgeSupports(g)
		got := MutableEdgeSupports(NewMutable(g, nil))
		if len(got) != len(want) {
			return false
		}
		for e, s := range want {
			if got[e] != s {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestEdgeSupportsMatchMerge(t *testing.T) {
	// Dense and sparse random graphs, a clique (every rank decided by ID),
	// and a hub over a small clique with the lowest and then the highest
	// vertex ID: the (degree, ID) rank orients every hub arc inward both
	// times, where an ID order would flip them.
	hub := func(h int) *Graph {
		b := NewBuilder(40, 0)
		for v := 0; v < 40; v++ {
			if v != h {
				b.AddEdge(h, v)
			}
		}
		for u := 1; u < 8; u++ {
			for v := u + 1; v < 8; v++ {
				b.AddEdge(u, v)
			}
		}
		return b.Build()
	}
	for i, g := range []*Graph{randomGraph(11, 260, 0.55), randomGraph(12, 200, 0.05), hub(0), hub(39), completeGraph(9)} {
		if got, want := EdgeSupports(g), MutableEdgeSupports(NewMutable(g, nil)); !slices.Equal(got, want) {
			t.Fatalf("graph %d: forward supports %v, merge %v", i, got, want)
		}
	}
}

func TestClusteringCoefficient(t *testing.T) {
	if gcc := GlobalClusteringCoefficient(completeGraph(6)); gcc < 0.999 || gcc > 1.001 {
		t.Fatalf("clique GCC = %f, want 1", gcc)
	}
	if gcc := GlobalClusteringCoefficient(pathGraph(10)); gcc != 0 {
		t.Fatalf("path GCC = %f, want 0", gcc)
	}
}

func TestDegeneracyOrder(t *testing.T) {
	g := completeGraph(6)
	order, d := DegeneracyOrder(g)
	if d != 5 {
		t.Fatalf("K6 degeneracy = %d, want 5", d)
	}
	if len(order) != 6 {
		t.Fatalf("order length = %d", len(order))
	}
	if _, d := DegeneracyOrder(pathGraph(10)); d != 1 {
		t.Fatalf("path degeneracy = %d, want 1", d)
	}
	// A clique with a pendant vertex still has degeneracy n-1? No: pendant
	// vertex peels at degree 1, then the clique at degree n-2... K5 + pendant:
	b := NewBuilder(6, 0)
	for u := 0; u < 5; u++ {
		for v := u + 1; v < 5; v++ {
			b.AddEdge(u, v)
		}
	}
	b.AddEdge(4, 5)
	if _, d := DegeneracyOrder(b.Build()); d != 4 {
		t.Fatalf("K5+pendant degeneracy = %d, want 4", d)
	}
}

func TestCoreNumbers(t *testing.T) {
	// K5 with a pendant: clique vertices have core 4, pendant core 1.
	b := NewBuilder(6, 0)
	for u := 0; u < 5; u++ {
		for v := u + 1; v < 5; v++ {
			b.AddEdge(u, v)
		}
	}
	b.AddEdge(4, 5)
	core := CoreNumbers(b.Build())
	for v := 0; v < 5; v++ {
		if core[v] != 4 {
			t.Fatalf("core[%d] = %d, want 4", v, core[v])
		}
	}
	if core[5] != 1 {
		t.Fatalf("core[pendant] = %d, want 1", core[5])
	}
}

func TestSortedVertexByDegree(t *testing.T) {
	g := FromEdges(4, [][2]int{{0, 1}, {0, 2}, {0, 3}, {1, 2}})
	order := SortedVertexByDegree(g)
	if order[0] != 0 {
		t.Fatalf("highest degree vertex = %d, want 0", order[0])
	}
	if order[3] != 3 {
		t.Fatalf("lowest degree vertex = %d, want 3", order[3])
	}
	// Stable tie-break by ID: vertices 1 and 2 both have degree 2.
	if order[1] != 1 || order[2] != 2 {
		t.Fatalf("tie-break broken: %v", order)
	}
}
