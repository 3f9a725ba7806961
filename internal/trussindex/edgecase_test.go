package trussindex

import (
	"errors"
	"testing"

	"repro/internal/graph"
)

// TestFindKTrussLowKClamped pins the k < 2 contract: trussness is undefined
// below 2, so k = 1, 0 and negative k must behave exactly like k = 2 rather
// than silently comparing against τ(v) = 0 and "finding" edgeless
// communities on isolated vertices.
func TestFindKTrussLowKClamped(t *testing.T) {
	g := graph.FromEdges(6, [][2]int{{0, 1}, {0, 2}, {1, 2}, {2, 3}, {3, 4}})
	ix := Build(g)
	want, err := findKTruss(t, ix, []int{0}, 2)
	if err != nil {
		t.Fatalf("k=2: %v", err)
	}
	for _, k := range []int32{1, 0, -3} {
		mu, err := findKTruss(t, ix, []int{0}, k)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if mu.M() != want.M() || mu.N() != want.N() {
			t.Fatalf("k=%d: got n=%d m=%d, want the k=2 community n=%d m=%d",
				k, mu.N(), mu.M(), want.N(), want.M())
		}
	}
	// Vertex 5 is isolated: no k may succeed, including the clamped ones.
	for _, k := range []int32{-1, 0, 1, 2, 3} {
		if _, err := findKTruss(t, ix, []int{5}, k); !errors.Is(err, ErrNoCommunity) {
			t.Fatalf("isolated vertex, k=%d: err = %v, want ErrNoCommunity", k, err)
		}
	}
}

// TestEmptyGraphIndex exercises every query entry point over an index built
// from a graph with no vertices and no edges.
func TestEmptyGraphIndex(t *testing.T) {
	ix := Build(graph.NewBuilder(0, 0).Build())
	if ix.MaxTruss() != 0 {
		t.Fatalf("empty graph max truss = %d", ix.MaxTruss())
	}
	if ths := ix.Thresholds(); len(ths) != 0 {
		t.Fatalf("empty graph thresholds = %v", ths)
	}
	if _, _, err := findG0(t, ix, []int{0}); err == nil {
		t.Fatal("FindG0 on empty graph accepted an out-of-range query")
	}
	if _, err := findKTruss(t, ix, []int{0}, 2); !errors.Is(err, ErrNoCommunity) {
		t.Fatal("FindKTruss on empty graph must fail with ErrNoCommunity")
	}
	if _, err := findKTruss(t, ix, nil, 3); err == nil {
		t.Fatal("empty query accepted")
	}
	if ix.VertexTruss(0) != 0 || ix.EdgeTruss(0, 1) != 0 {
		t.Fatal("lookups on empty graph must return 0")
	}
}

// TestFindKTrussFailureBuildsNothing pins the failure path's allocation
// contract: a query spanning two components at level k must return before
// materializing any subgraph, and must not disturb workspace reuse for the
// next (successful) query.
func TestFindKTrussFailureBuildsNothing(t *testing.T) {
	// Two disjoint triangles.
	g := graph.FromEdges(6, [][2]int{{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5}})
	ix := Build(g)
	ws := ix.AcquireWorkspace()
	defer ws.Release()
	if x, _, err := ix.FindKTrussW([]int{0, 3}, 3, ws); err == nil || x != nil {
		t.Fatalf("cross-component query: x=%v err=%v, want nil + error", x, err)
	}
	x, _, err := ix.FindKTrussW([]int{0, 2}, 3, ws)
	if err != nil || x.G.M() != 3 {
		t.Fatalf("follow-up query on reused workspace: x=%v err=%v", x, err)
	}
}
