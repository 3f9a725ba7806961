package graph

import (
	"testing"
)

// modelMutable is a trivially-correct map-backed mirror of Mutable used as
// the fuzzing oracle for the edge-bitset overlay.
type modelMutable struct {
	edges   map[EdgeKey]bool
	present map[int]bool
}

func (mm *modelMutable) addEdge(u, v int) bool {
	k := Key(u, v)
	if u == v || mm.edges[k] {
		return false
	}
	mm.edges[k] = true
	mm.present[u] = true
	mm.present[v] = true
	return true
}

func (mm *modelMutable) deleteEdge(u, v int) bool {
	k := Key(u, v)
	if !mm.edges[k] {
		return false
	}
	delete(mm.edges, k)
	return true
}

func (mm *modelMutable) deleteVertex(v int) {
	if !mm.present[v] {
		return
	}
	delete(mm.present, v)
	for k := range mm.edges {
		a, b := k.Endpoints()
		if a == v || b == v {
			delete(mm.edges, k)
		}
	}
}

func (mm *modelMutable) degree(v int) int {
	d := 0
	for k := range mm.edges {
		a, b := k.Endpoints()
		if a == v || b == v {
			d++
		}
	}
	return d
}

// checkMutableAgainstModel verifies every structural invariant of the
// overlay against the oracle.
func checkMutableAgainstModel(t *testing.T, mu *Mutable, mm *modelMutable) {
	t.Helper()
	if mu.M() != len(mm.edges) {
		t.Fatalf("M = %d, model has %d", mu.M(), len(mm.edges))
	}
	if mu.N() != len(mm.present) {
		t.Fatalf("N = %d, model has %d", mu.N(), len(mm.present))
	}
	sum := 0
	for v := 0; v < mu.NumIDs(); v++ {
		if mu.Present(v) != mm.present[v] {
			t.Fatalf("Present(%d) = %v, model says %v", v, mu.Present(v), mm.present[v])
		}
		if mu.Degree(v) != mm.degree(v) {
			t.Fatalf("Degree(%d) = %d, model says %d", v, mu.Degree(v), mm.degree(v))
		}
		sum += mu.Degree(v)
	}
	if sum != 2*mu.M() {
		t.Fatalf("handshake violated: Σdeg = %d, 2M = %d", sum, 2*mu.M())
	}
	keys := mu.EdgeKeys()
	if len(keys) != len(mm.edges) {
		t.Fatalf("EdgeKeys has %d entries, model %d", len(keys), len(mm.edges))
	}
	prev := EdgeKey(0)
	for i, k := range keys {
		if i > 0 && k <= prev {
			t.Fatalf("EdgeKeys unsorted at %d: %s after %s", i, k, prev)
		}
		prev = k
		u, v := k.Endpoints()
		if !mm.edges[k] {
			t.Fatalf("edge %s reported but not in model", k)
		}
		if !mu.HasEdge(u, v) || !mu.HasEdge(v, u) {
			t.Fatalf("HasEdge(%s) asymmetric or false", k)
		}
		// CommonNeighbors must agree with a direct double-HasEdge probe.
		want := 0
		for w := 0; w < mu.NumIDs(); w++ {
			if w != u && w != v && mm.edges[Key(u, w)] && mm.edges[Key(v, w)] {
				want++
			}
		}
		if got := mu.CountCommonNeighbors(u, v); got != want {
			t.Fatalf("support%s = %d, model says %d", k, got, want)
		}
	}
	// Freeze must reproduce the edge set exactly.
	fz := mu.Freeze()
	if fz.M() != mu.M() {
		t.Fatalf("freeze M = %d, want %d", fz.M(), mu.M())
	}
	fz.ForEachEdge(func(u, v int) {
		if !mm.edges[Key(u, v)] {
			t.Fatalf("frozen edge (%d,%d) not in model", u, v)
		}
	})
}

// FuzzMutableOverlay drives random operation sequences against both the
// edge-bitset Mutable and the map oracle. Ops are decoded from the fuzz
// input: each triple (op, u, v) adds an edge, deletes an edge, deletes a
// vertex, or clones (continuing on the clone). Edges with u, v < 16 may hit
// the base graph; a pair it does not hold, such as any with a larger
// endpoint, must leave the overlay as it was.
func FuzzMutableOverlay(f *testing.F) {
	f.Add([]byte{0, 1, 2, 0, 2, 3, 1, 1, 2})
	f.Add([]byte{0, 0, 17, 1, 0, 17, 2, 5, 0})
	f.Add([]byte{0, 1, 2, 3, 0, 0, 0, 20, 21, 2, 20, 0})
	f.Add([]byte{0, 3, 4, 0, 4, 5, 0, 3, 5, 1, 3, 4, 2, 4, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		const n = 24
		base := randomGraph(7, 16, 0.3)
		// Widen the ID space past the base graph so foreign pairs exist.
		b := NewBuilder(n, base.M())
		b.EnsureVertex(n - 1)
		base.ForEachEdge(b.AddEdge)
		g := b.Build()

		mu := NewMutable(g, nil)
		mm := &modelMutable{edges: map[EdgeKey]bool{}, present: map[int]bool{}}
		for v := 0; v < g.N(); v++ {
			mm.present[v] = true
		}
		g.ForEachEdge(func(u, v int) { mm.edges[Key(u, v)] = true })

		for i := 0; i+2 < len(data); i += 3 {
			op, u, v := data[i]%4, int(data[i+1])%n, int(data[i+2])%n
			switch op {
			case 0:
				if mu.AddEdge(u, v) != (g.HasEdge(u, v) && mm.addEdge(u, v)) {
					t.Fatalf("AddEdge(%d,%d) disagreed with model", u, v)
				}
			case 1:
				if mu.DeleteEdge(u, v) != mm.deleteEdge(u, v) {
					t.Fatalf("DeleteEdge(%d,%d) disagreed with model", u, v)
				}
			case 2:
				mu.DeleteVertex(u)
				mm.deleteVertex(u)
			case 3:
				mu = mu.Clone()
			}
		}
		checkMutableAgainstModel(t, mu, mm)
	})
}

// FuzzMutableShellRevive checks the AddEdgeByID/DeleteEdgeByID bitset paths
// used by FindG0 and the peeling keep-reconstruction.
func FuzzMutableShellRevive(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3})
	f.Add([]byte{9, 9, 0, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		g := randomGraph(11, 20, 0.3)
		if g.M() == 0 {
			t.Skip("degenerate graph")
		}
		mu := NewMutableShell(g)
		mm := &modelMutable{edges: map[EdgeKey]bool{}, present: map[int]bool{}}
		for i, op := range data {
			e := int32(int(op) % g.M())
			u, v := g.EdgeEndpoints(e)
			if i%3 == 2 {
				if mu.DeleteEdgeByID(e) != mm.deleteEdge(u, v) {
					t.Fatalf("DeleteEdgeByID(%d) disagreed with model", e)
				}
			} else {
				if mu.AddEdgeByID(e) != mm.addEdge(u, v) {
					t.Fatalf("AddEdgeByID(%d) disagreed with model", e)
				}
			}
		}
		// DeleteEdgeByID keeps endpoints present (matching DeleteEdge), so
		// mirror presence before the full check.
		for v := range mm.present {
			if !mu.Present(v) {
				t.Fatalf("vertex %d lost presence", v)
			}
		}
		mm.present = map[int]bool{}
		for v := 0; v < mu.NumIDs(); v++ {
			if mu.Present(v) {
				mm.present[v] = true
			}
		}
		checkMutableAgainstModel(t, mu, mm)
	})
}
