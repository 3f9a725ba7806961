package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// allPairsDiameter is the oracle for Diameter: a BFS from every present
// vertex, the largest finite distance, and ok=false as soon as some present
// vertex misses another.
func allPairsDiameter(g Adjacency) (diam int, ok bool) {
	n := g.NumIDs()
	dist := make([]int32, n)
	var queue []int32
	ok = true
	for v := 0; v < n; v++ {
		if !g.Present(v) {
			continue
		}
		queue = BFS(g, v, dist, queue)
		for u := 0; u < n; u++ {
			if !g.Present(u) {
				continue
			}
			if dist[u] == Unreachable {
				ok = false
			} else if int(dist[u]) > diam {
				diam = int(dist[u])
			}
		}
	}
	return diam, ok
}

// checkDiameter holds Diameter(g) to the all-pairs oracle.
func checkDiameter(t *testing.T, head string, g Adjacency) {
	t.Helper()
	d, ok := Diameter(g)
	wd, wok := allPairsDiameter(g)
	if d != wd || ok != wok {
		t.Fatalf("%s: Diameter = %d,%v; all pairs %d,%v", head, d, ok, wd, wok)
	}
}

func TestDiameterEdgeCases(t *testing.T) {
	if d, ok := Diameter(NewBuilder(0, 0).Build()); d != 0 || !ok {
		t.Fatalf("empty: %d %v", d, ok)
	}
	b := NewBuilder(1, 0)
	b.EnsureVertex(0)
	if d, ok := Diameter(b.Build()); d != 0 || !ok {
		t.Fatalf("singleton: %d %v", d, ok)
	}
	if d, ok := Diameter(pathGraph(3)); d != 2 || !ok {
		t.Fatalf("tiny path: %d %v", d, ok)
	}
	// Disconnected: ok=false, the diameter of the longer component.
	g := FromEdges(6, [][2]int{{0, 1}, {2, 3}, {3, 4}, {4, 5}})
	if d, ok := Diameter(g); d != 3 || ok {
		t.Fatalf("disconnected: %d %v, want 3 false", d, ok)
	}
	// An isolated vertex is a component of its own.
	b = NewBuilder(4, 0)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.EnsureVertex(3)
	if d, ok := Diameter(b.Build()); d != 2 || ok {
		t.Fatalf("isolated vertex: %d %v, want 2 false", d, ok)
	}
	// The highest-degree vertex sits at one end of a long tail, so its BFS
	// levels alone cannot settle the diameter.
	b = NewBuilder(0, 0)
	for i := 1; i <= 5; i++ {
		b.AddEdge(0, i)
	}
	for i := 5; i < 12; i++ {
		b.AddEdge(i, i+1)
	}
	if d, ok := Diameter(b.Build()); d != 9 || !ok {
		t.Fatalf("broom: %d %v, want 9 true", d, ok)
	}
}

func TestDiameterMatchesAllPairs(t *testing.T) {
	f := func(seed int64, size, density uint8) bool {
		g := randomGraph(seed, 2+int(size)%59, 0.01+float64(density%40)/100)
		d, ok := Diameter(g)
		wd, wok := allPairsDiameter(g)
		return d == wd && ok == wok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestDiameterOnMutable(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		g := randomGraph(seed, 50, 0.04+0.002*float64(seed))
		rng := rand.New(rand.NewSource(seed))
		mu := NewMutable(g, nil)
		for range 5 {
			mu.DeleteVertex(rng.Intn(g.N()))
		}
		checkDiameter(t, "vertices deleted", mu)
		for e := int32(0); e < int32(g.M()); e++ {
			if rng.Intn(4) == 0 {
				mu.DeleteEdgeByID(e)
			}
		}
		checkDiameter(t, "edges deleted", mu)
	}
}

// FuzzDiameter holds Diameter to the all-pairs oracle on a graph of up to 48
// vertices whose edges are the byte pairs of edges, and on two overlays of
// it: one over the vertices a cut byte does not name, one with the edges
// whose IDs the cut bytes name deleted. Sparse inputs give disconnected
// graphs, isolated vertices and absent IDs; paths, cycles and brooms give
// the deep BFS levels where iFUB's stopping rule matters.
func FuzzDiameter(f *testing.F) {
	f.Add(uint8(10), []byte{0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9}, []byte{4})
	f.Add(uint8(8), []byte{0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 0}, []byte{0, 9})
	f.Add(uint8(12), []byte{0, 1, 0, 2, 0, 3, 0, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9}, []byte{})
	f.Add(uint8(9), []byte{0, 1, 1, 2, 2, 0, 3, 4, 4, 5, 6, 7}, []byte{1, 3, 5})
	f.Add(uint8(1), []byte{}, []byte{0})
	f.Add(uint8(47), []byte{0, 1, 1, 2, 2, 3, 0, 3, 3, 4, 4, 40, 40, 41, 41, 42, 2, 42, 10, 11}, []byte{2, 7, 41})
	f.Fuzz(func(t *testing.T, size uint8, edges, cuts []byte) {
		n := 1 + int(size)%48
		b := NewBuilder(n, len(edges)/2)
		b.EnsureVertex(n - 1)
		for i := 0; i+1 < len(edges); i += 2 {
			b.AddEdge(int(edges[i])%n, int(edges[i+1])%n)
		}
		g := b.Build()
		checkDiameter(t, "graph", g)

		cut := make([]bool, n)
		for _, c := range cuts {
			cut[int(c)%n] = true
		}
		keep := []int{} // not nil: NewMutable(g, nil) keeps every vertex
		for v := range n {
			if !cut[v] {
				keep = append(keep, v)
			}
		}
		checkDiameter(t, "overlay on the uncut vertices", NewMutable(g, keep))

		if g.M() > 0 {
			mu := NewMutable(g, nil)
			for _, c := range cuts {
				mu.DeleteEdgeByID(int32(int(c) % g.M()))
			}
			checkDiameter(t, "overlay without the cut edges", mu)
		}
	})
}
