package graph

import (
	"testing"
	"testing/quick"
)

func TestMutableMirrorsGraph(t *testing.T) {
	g := paperGraph()
	mu := NewMutable(g, nil)
	if mu.N() != g.N() || mu.M() != g.M() {
		t.Fatalf("mutable N=%d M=%d, want %d %d", mu.N(), mu.M(), g.N(), g.M())
	}
	g.ForEachEdge(func(u, v int) {
		if !mu.HasEdge(u, v) {
			t.Fatalf("edge (%d,%d) missing from mutable", u, v)
		}
	})
}

func TestMutableInducedSubset(t *testing.T) {
	g := paperGraph()
	// The 4-clique q1,q2,v1,v2 → 6 edges.
	mu := NewMutable(g, []int{0, 1, 3, 4})
	if mu.N() != 4 || mu.M() != 6 {
		t.Fatalf("induced clique: N=%d M=%d, want 4, 6", mu.N(), mu.M())
	}
}

func TestMutableDeleteVertexCascade(t *testing.T) {
	g := paperGraph()
	mu := NewMutable(g, nil)
	deg := mu.Degree(2) // q3 has many neighbors
	mu.DeleteVertex(2)
	if mu.Present(2) {
		t.Fatal("vertex still present after deletion")
	}
	if mu.M() != g.M()-deg {
		t.Fatalf("M = %d after deleting deg-%d vertex, want %d", mu.M(), deg, g.M()-deg)
	}
	// Neighbors must not reference the deleted vertex.
	for v := 0; v < mu.NumIDs(); v++ {
		mu.ForEachNeighbor(v, func(u int) {
			if u == 2 {
				t.Fatalf("dangling edge to deleted vertex from %d", v)
			}
		})
	}
	// Deleting again is a no-op.
	before := mu.M()
	mu.DeleteVertex(2)
	if mu.M() != before {
		t.Fatal("double deletion changed edge count")
	}
}

func TestMutableDeleteEdge(t *testing.T) {
	g := paperGraph()
	mu := NewMutable(g, nil)
	if !mu.DeleteEdge(0, 1) {
		t.Fatal("DeleteEdge returned false for existing edge")
	}
	if mu.HasEdge(0, 1) || mu.HasEdge(1, 0) {
		t.Fatal("edge still present")
	}
	if mu.DeleteEdge(0, 1) {
		t.Fatal("DeleteEdge returned true for absent edge")
	}
	if mu.M() != g.M()-1 {
		t.Fatalf("M = %d, want %d", mu.M(), g.M()-1)
	}
}

func TestMutableAddEdge(t *testing.T) {
	mu := NewMutableShell(FromEdges(5, [][2]int{{1, 3}, {2, 4}}))
	if mu.AddEdge(3, 3) {
		t.Fatal("self-loop accepted")
	}
	if !mu.AddEdge(1, 3) || mu.AddEdge(3, 1) {
		t.Fatal("AddEdge idempotence broken")
	}
	if mu.N() != 2 || mu.M() != 1 {
		t.Fatalf("N=%d M=%d, want 2 1", mu.N(), mu.M())
	}
	// A pair the base graph does not hold is ignored, like an out-of-range
	// one.
	for _, p := range [][2]int{{0, 1}, {1, 2}, {3, 4}, {1, 5}} {
		if mu.AddEdge(p[0], p[1]) {
			t.Fatalf("non-base pair %v accepted", p)
		}
		if mu.N() != 2 || mu.M() != 1 || mu.HasEdge(p[0], p[1]) {
			t.Fatalf("non-base pair %v: N=%d M=%d HasEdge=%v, want 2 1 false", p, mu.N(), mu.M(), mu.HasEdge(p[0], p[1]))
		}
	}
}

func TestMutableCloneIndependent(t *testing.T) {
	g := paperGraph()
	mu := NewMutable(g, nil)
	cp := mu.Clone()
	cp.DeleteVertex(0)
	if !mu.Present(0) {
		t.Fatal("clone deletion leaked into original")
	}
	if cp.N() != mu.N()-1 {
		t.Fatalf("clone N=%d, want %d", cp.N(), mu.N()-1)
	}
}

func TestMutableCommonNeighbors(t *testing.T) {
	g := paperGraph()
	mu := NewMutable(g, nil)
	// Edge (q2=1, v2=4) is contained in triangles with q1=0, v1=3, v5=7.
	got := map[int]bool{}
	mu.CommonNeighbors(1, 4, func(w int) { got[w] = true })
	want := map[int]bool{0: true, 3: true, 7: true}
	if len(got) != len(want) {
		t.Fatalf("common neighbors = %v, want %v", got, want)
	}
	for w := range want {
		if !got[w] {
			t.Fatalf("missing common neighbor %d", w)
		}
	}
	if mu.CountCommonNeighbors(1, 4) != 3 {
		t.Fatalf("support = %d, want 3", mu.CountCommonNeighbors(1, 4))
	}
}

func TestMutableFreezeRoundTrip(t *testing.T) {
	g := paperGraph()
	mu := NewMutable(g, nil)
	mu.DeleteVertex(11) // drop t
	fz := mu.Freeze()
	if fz.M() != mu.M() {
		t.Fatalf("freeze M=%d, want %d", fz.M(), mu.M())
	}
	fz.ForEachEdge(func(u, v int) {
		if !mu.HasEdge(u, v) {
			t.Fatalf("frozen edge (%d,%d) not in mutable", u, v)
		}
	})
}

func TestMutableVerticesSorted(t *testing.T) {
	g := paperGraph()
	mu := NewMutable(g, []int{5, 1, 9})
	vs := mu.Vertices()
	if len(vs) != 3 || vs[0] != 1 || vs[1] != 5 || vs[2] != 9 {
		t.Fatalf("vertices = %v", vs)
	}
}

func TestMutableEdgeInvariant(t *testing.T) {
	// Property: after arbitrary deletions, handshake invariant holds.
	f := func(seed int64, dels []uint8) bool {
		g := randomGraph(seed, 24, 0.25)
		mu := NewMutable(g, nil)
		for _, d := range dels {
			v := int(d) % 24
			if mu.Present(v) {
				mu.DeleteVertex(v)
			}
		}
		sum := 0
		for v := 0; v < mu.NumIDs(); v++ {
			sum += mu.Degree(v)
		}
		return sum == 2*mu.M()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
