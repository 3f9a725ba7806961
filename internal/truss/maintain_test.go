package truss

import (
	"testing"

	"repro/internal/graph"
)

// MaintainKTruss is MaintainKTrussScratch on fresh scratch, the form the
// tests call.
func MaintainKTruss(mu *graph.Mutable, sup []int32, k int32, vd []int) (removedVerts []int, removedEdges []int32) {
	return MaintainKTrussScratch(mu, sup, k, vd, new(MaintainScratch))
}

func TestMaintainPaperExample4(t *testing.T) {
	// Example 4: on G0 (the grey 4-truss), deleting p1 forces p2, p3 out as
	// well to restore the 4-truss property, yielding Figure 1(b).
	g := paperGraph()
	d := Decompose(g)
	mu, k, err := MaxConnectedKTruss(g, d, []int{0, 1, 2})
	if err != nil || k != 4 {
		t.Fatalf("setup failed: k=%d err=%v", k, err)
	}
	sup := graph.MutableEdgeSupports(mu)
	removed, _ := MaintainKTruss(mu, sup, 4, []int{8}) // delete p1
	gotRemoved := map[int]bool{}
	for _, v := range removed {
		gotRemoved[v] = true
	}
	if !gotRemoved[8] || !gotRemoved[9] || !gotRemoved[10] {
		t.Fatalf("removed = %v, want {8,9,10} (p1,p2,p3)", removed)
	}
	if mu.N() != 8 {
		t.Fatalf("remaining N = %d, want 8", mu.N())
	}
	if err := VerifyCommunity(mu, 4, []int{0, 1, 2}); err != nil {
		t.Fatalf("result is not a valid 4-truss community: %v", err)
	}
	dm, ok := graph.Diameter(mu)
	if !ok || dm != 3 {
		t.Fatalf("diameter = %d, want 3 (Figure 1(b))", dm)
	}
}

func TestMaintainSupportsStayCorrect(t *testing.T) {
	// After maintenance, the sup table must match recomputed supports.
	for seed := int64(0); seed < 10; seed++ {
		g := randomGraph(seed, 24, 0.35)
		d := Decompose(g)
		if d.MaxTruss < 4 {
			continue
		}
		mu := MaximalKTruss(g, d, 4)
		if mu.M() == 0 {
			continue
		}
		sup := graph.MutableEdgeSupports(mu)
		vs := mu.Vertices()
		MaintainKTruss(mu, sup, 4, []int{vs[0]})
		want := graph.MutableEdgeSupports(mu)
		if len(sup) != len(want) {
			t.Fatalf("seed %d: support table has %d entries, want %d", seed, len(sup), len(want))
		}
		for e, s := range want {
			if sup[e] != s {
				t.Fatalf("seed %d: sup%s = %d, want %d", seed, mu.Base().EdgeKeyOf(int32(e)), sup[e], s)
			}
		}
		if !IsKTruss(mu, 4) {
			t.Fatalf("seed %d: maintenance left a non-4-truss", seed)
		}
	}
}

func TestMaintainDeleteAbsentVertex(t *testing.T) {
	g := completeGraph(5)
	mu := graph.NewMutable(g, nil)
	sup := graph.MutableEdgeSupports(mu)
	removed, _ := MaintainKTruss(mu, sup, 5, []int{99}) // out of range is impossible here; use absent
	_ = removed
	if mu.M() != 10 {
		t.Fatal("deleting nothing must not change the graph")
	}
	mu2 := graph.NewMutable(g, nil)
	mu2.DeleteVertex(4)
	sup2 := graph.MutableEdgeSupports(mu2)
	MaintainKTruss(mu2, sup2, 5, []int{4}) // already gone
	if mu2.M() != 6 {
		t.Fatalf("M = %d, want 6 (K4 left after earlier deletion)", mu2.M())
	}
}

func TestMaintainFullCollapse(t *testing.T) {
	// Deleting any vertex of K4 at k=4 collapses everything: remaining
	// triangle edges have support 1 < k-2.
	g := completeGraph(4)
	mu := graph.NewMutable(g, nil)
	sup := graph.MutableEdgeSupports(mu)
	removed, _ := MaintainKTruss(mu, sup, 4, []int{0})
	if mu.M() != 0 || mu.N() != 0 {
		t.Fatalf("expected total collapse, got N=%d M=%d", mu.N(), mu.M())
	}
	if len(removed) != 4 {
		t.Fatalf("removed %d vertices, want 4", len(removed))
	}
	for e, s := range sup {
		if s != 0 {
			t.Fatalf("support entry %d should be zeroed after collapse, has %d", e, s)
		}
	}
}

func TestMaintainBatchDeletion(t *testing.T) {
	// Bulk deletion of several vertices at once (Algorithm 4's mode).
	g := paperGraph()
	d := Decompose(g)
	mu, _, _ := MaxConnectedKTruss(g, d, []int{0, 1, 2})
	sup := graph.MutableEdgeSupports(mu)
	MaintainKTruss(mu, sup, 4, []int{8, 9, 10}) // all of p1,p2,p3 in one batch
	if mu.N() != 8 {
		t.Fatalf("N = %d, want 8", mu.N())
	}
	if !IsKTruss(mu, 4) {
		t.Fatal("not a 4-truss after batch deletion")
	}
}

func TestDropBelowSupport(t *testing.T) {
	// K5 with one edge removed: the two non-adjacent... construct K5 and
	// delete edge (0,1); edges (0,x),(1,x) now have support 2, the rest 3.
	g := completeGraph(5)
	mu := graph.NewMutable(g, nil)
	mu.DeleteEdge(0, 1)
	sup := graph.MutableEdgeSupports(mu)
	// Require a 5-truss (support >= 3): peels everything touching 0 or 1,
	// leaving K3 on {2,3,4}? K3 edges have support 1 < 3 → total collapse.
	cp := mu.Clone()
	supCp := append([]int32(nil), sup...)
	DropBelowSupport(cp, supCp, 5)
	if cp.M() != 0 {
		t.Fatalf("5-truss of K5-minus-edge should be empty, M=%d", cp.M())
	}
	// Require a 4-truss (support >= 2): the whole K5-minus-edge qualifies.
	DropBelowSupport(mu, sup, 4)
	if mu.M() != 9 {
		t.Fatalf("4-truss should keep all 9 edges, M=%d", mu.M())
	}
}
