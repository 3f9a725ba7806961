package graph

import (
	"testing"
	"testing/quick"
)

func pathGraph(n int) *Graph {
	b := NewBuilder(n, n-1)
	for i := 0; i+1 < n; i++ {
		b.AddEdge(i, i+1)
	}
	return b.Build()
}

func TestBFSPath(t *testing.T) {
	g := pathGraph(6)
	dist := Distances(g, 0)
	for v := 0; v < 6; v++ {
		if dist[v] != int32(v) {
			t.Fatalf("dist[%d] = %d, want %d", v, dist[v], v)
		}
	}
}

func TestBFSDisconnected(t *testing.T) {
	g := FromEdges(5, [][2]int{{0, 1}, {2, 3}})
	dist := Distances(g, 0)
	if dist[1] != 1 || dist[2] != Unreachable || dist[4] != Unreachable {
		t.Fatalf("dist = %v", dist)
	}
}

func TestBFSAbsentSource(t *testing.T) {
	g := paperGraph()
	mu := NewMutable(g, nil)
	mu.DeleteVertex(0)
	dist := Distances(mu, 0)
	for _, d := range dist {
		if d != Unreachable {
			t.Fatal("BFS from absent source should reach nothing")
		}
	}
}

func TestQueryDistancesPaperExample(t *testing.T) {
	// Paper §2: for Q={q2,q3}, dist(v2,Q)=2 (dist to q3 is 2, to q2 is 1).
	g := paperGraph()
	qd := QueryDistances(g, []int{1, 2}) // q2=1, q3=2
	if qd[4] != 2 {                      // v2=4
		t.Fatalf("dist(v2,Q) = %d, want 2", qd[4])
	}
}

func TestGraphQueryDistancePaperExample(t *testing.T) {
	// Paper §2: the grey 4-truss H (everything except t) with Q={q2,q3} has
	// query distance 3.
	g := paperGraph()
	vertices := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10} // all but t=11
	sub := Induced(g, vertices)
	mu := NewMutable(sub, vertices)
	d, all := GraphQueryDistance(mu, []int{1, 2})
	if !all {
		t.Fatal("grey region should be connected")
	}
	if d != 3 {
		t.Fatalf("dist(H,Q) = %d, want 3", d)
	}
}

func TestConnected(t *testing.T) {
	g := FromEdges(6, [][2]int{{0, 1}, {1, 2}, {3, 4}})
	if !Connected(g, []int{0, 2}) {
		t.Fatal("0 and 2 are connected")
	}
	if Connected(g, []int{0, 3}) {
		t.Fatal("0 and 3 are not connected")
	}
	if !Connected(g, []int{}) || !Connected(g, []int{5}) {
		t.Fatal("empty / singleton query must be connected")
	}
	mu := NewMutable(g, nil)
	mu.DeleteVertex(1)
	if Connected(mu, []int{0, 2}) {
		t.Fatal("deleting the bridge vertex must disconnect")
	}
	if Connected(mu, []int{1}) {
		t.Fatal("absent vertex cannot be connected")
	}
}

func TestComponent(t *testing.T) {
	g := FromEdges(6, [][2]int{{0, 1}, {1, 2}, {3, 4}})
	comp := Component(g, 1)
	if len(comp) != 3 || comp[0] != 0 || comp[2] != 2 {
		t.Fatalf("component = %v", comp)
	}
	if ComponentCount(g) != 3 { // {0,1,2}, {3,4}, {5}
		t.Fatalf("components = %d, want 3", ComponentCount(g))
	}
	if IsConnected(g) {
		t.Fatal("graph is not connected")
	}
	if !IsConnected(pathGraph(4)) {
		t.Fatal("path is connected")
	}
}

func TestQueryDistanceMonotoneUnderDeletion(t *testing.T) {
	// Lemma 3 / Fact 1 of the paper: dist(v,Q) is non-decreasing as the graph
	// shrinks. Property-checked on random graphs.
	f := func(seed int64, delRaw uint8) bool {
		g := randomGraph(seed, 20, 0.3)
		mu := NewMutable(g, nil)
		q := []int{0}
		if !mu.Present(0) {
			return true
		}
		before := QueryDistances(mu, q)
		del := int(delRaw)%19 + 1 // never the query vertex
		mu.DeleteVertex(del)
		after := QueryDistances(mu, q)
		for v := 0; v < 20; v++ {
			if v == del || !mu.Present(v) {
				continue
			}
			if before[v] == Unreachable {
				continue
			}
			if after[v] != Unreachable && after[v] < before[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestDiameterPaperExample(t *testing.T) {
	// Paper §2: diam(H) = 4 for the grey region.
	g := paperGraph()
	grey := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	sub := Induced(g, grey)
	mu := NewMutable(sub, grey)
	d, ok := Diameter(mu)
	if !ok || d != 4 {
		t.Fatalf("diam = %d (ok=%v), want 4", d, ok)
	}
	// Figure 1(b): without p1,p2,p3 the diameter is 3.
	ctc := []int{0, 1, 2, 3, 4, 5, 6, 7}
	sub2 := Induced(g, ctc)
	mu2 := NewMutable(sub2, ctc)
	d2, ok2 := Diameter(mu2)
	if !ok2 || d2 != 3 {
		t.Fatalf("CTC diam = %d (ok=%v), want 3", d2, ok2)
	}
}

func TestDiameterBoundsLemma2(t *testing.T) {
	// Lemma 2: dist(G,Q) <= diam(G) <= 2 dist(G,Q) for Q ⊆ connected G.
	f := func(seed int64, qRaw uint8) bool {
		g := randomGraph(seed, 16, 0.35)
		if !IsConnected(g) {
			return true
		}
		q := []int{int(qRaw) % 16}
		d, _ := Diameter(g)
		qd, _ := GraphQueryDistance(g, q)
		return int(qd) <= d && d <= 2*int(qd)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
