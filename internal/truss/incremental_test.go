package truss

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// checkIncremental compares the maintained labels against a from-scratch
// decomposition of the current live graph.
func checkIncremental(t *testing.T, inc *Incremental, step string) {
	t.Helper()
	d := DecomposeMutable(inc.Graph())
	inc.Graph().ForEachLiveEdge(func(e int32, u, v int) {
		want := d.EdgeTrussOf(u, v)
		if got := inc.EdgeTau(e); got != want {
			t.Fatalf("%s: τ(%d,%d) = %d, want %d", step, u, v, got, want)
		}
	})
}

// edgeTau returns τ(u, v) in inc's live graph; (u, v) must be a base edge.
func edgeTau(inc *Incremental, u, v int) int32 {
	return inc.EdgeTau(inc.Graph().Base().EdgeID(u, v))
}

// incrementalOn returns an Incremental whose live graph is g over the
// complete graph on g's vertices as its base, so that any vertex pair can be
// inserted later.
func incrementalOn(g *graph.Graph) *Incremental {
	base := completeGraph(g.N())
	mu := graph.NewMutable(base, nil)
	tau := make([]int32, base.M())
	d := Decompose(g)
	for e := int32(0); e < int32(base.M()); e++ {
		u, v := base.EdgeEndpoints(e)
		if g.HasEdge(u, v) {
			tau[e] = d.EdgeTrussOf(u, v)
		} else {
			mu.DeleteEdgeByID(e)
		}
	}
	return ResumeIncremental(mu, tau)
}

// toggle deletes (u, v) if it is live and inserts it otherwise.
func toggle(inc *Incremental, u, v int) {
	if inc.Graph().HasEdge(u, v) {
		inc.DeleteEdge(u, v)
	} else {
		inc.InsertEdge(u, v)
	}
}

// TestIncrementalAdversarial replays the graphs built against a maintainer
// that treats low-trussness wings as permanent anchors: a clique on 0..c-1
// plus a vertex x adjacent to 0 and 1 only, so (0,1) has a triangle through
// x whose wings have τ = 3. Deleting the clique edge (2,3) must lower τ(0,1)
// from c to c-1; counting x's triangle at the old level would keep it at c.
func TestIncrementalAdversarial(t *testing.T) {
	for _, c := range []int{6, 5} {
		t.Run(fmt.Sprintf("K%d_low_wings", c), func(t *testing.T) {
			b := graph.NewBuilder(c+1, 0)
			for u := 0; u < c; u++ {
				for v := u + 1; v < c; v++ {
					b.AddEdge(u, v)
				}
			}
			b.AddEdge(0, c)
			b.AddEdge(1, c)
			inc := NewIncremental(b.Build())
			if got := edgeTau(inc, 0, 1); got != int32(c) {
				t.Fatalf("τ(0,1) = %d before, want %d", got, c)
			}
			inc.DeleteEdge(2, 3)
			checkIncremental(t, inc, "after deleting (2,3)")
			if got := edgeTau(inc, 0, 1); got != int32(c-1) {
				t.Fatalf("τ(0,1) = %d after, want %d", got, c-1)
			}
		})
	}
}

// TestIncrementalInsertTriangleByTriangle builds K5 one edge at a time from
// no edges, then tears it down again; every prefix must match recomputation.
func TestIncrementalInsertTriangleByTriangle(t *testing.T) {
	inc := incrementalOn(graph.FromEdges(5, nil))
	for u := 0; u < 5; u++ {
		for v := u + 1; v < 5; v++ {
			if !inc.InsertEdge(u, v) {
				t.Fatalf("insert (%d,%d) failed", u, v)
			}
			checkIncremental(t, inc, "building K5")
		}
	}
	if got := edgeTau(inc, 0, 1); got != 5 {
		t.Fatalf("final K5 trussness %d", got)
	}
	for u := 0; u < 5; u++ {
		for v := u + 1; v < 5; v++ {
			if !inc.DeleteEdge(u, v) {
				t.Fatalf("delete (%d,%d) failed", u, v)
			}
			checkIncremental(t, inc, "dismantling K5")
		}
	}
}

func TestIncrementalRejectsDegenerates(t *testing.T) {
	inc := NewIncremental(completeGraph(4))
	if inc.InsertEdge(0, 0) {
		t.Fatal("self-loop accepted")
	}
	if inc.InsertEdge(0, 1) {
		t.Fatal("duplicate accepted")
	}
	if inc.InsertEdge(-1, 2) || inc.InsertEdge(0, 99) {
		t.Fatal("out-of-range accepted")
	}
	if inc.DeleteEdge(0, 99) {
		t.Fatal("absent delete accepted")
	}
	if !inc.DeleteEdge(0, 1) || inc.DeleteEdge(0, 1) {
		t.Fatal("delete idempotence broken")
	}
	// An edge outside the base graph cannot be represented; the serve layer
	// buffers it and rebases.
	path := NewIncremental(graph.FromEdges(3, [][2]int{{0, 1}, {1, 2}}))
	if path.InsertEdge(0, 2) {
		t.Fatal("edge outside the base accepted")
	}
}

// TestIncrementalRandomOperationSequences interleaves insertions and
// deletions of arbitrary vertex pairs on random graphs, checking every step
// against full recomputation.
func TestIncrementalRandomOperationSequences(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 14
		inc := incrementalOn(randomGraph(seed, n, 0.25))
		for step := 0; step < 60; step++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			toggle(inc, u, v)
			checkIncremental(t, inc, "random sequence")
		}
	}
}

func TestIncrementalInsertRaisesPaperGraph(t *testing.T) {
	// On Figure 1(a), the chord (t, v4) closes one triangle with q3: all
	// three of its edges get trussness 3, and the deep 4-truss is untouched.
	edges := [][2]int{{11, 6}}
	for _, k := range paperGraph().EdgeKeys() {
		u, v := k.Endpoints()
		edges = append(edges, [2]int{u, v})
	}
	inc := NewIncremental(graph.FromEdges(12, edges))
	inc.DeleteEdge(11, 6)
	checkIncremental(t, inc, "before chord insert")
	if got := edgeTau(inc, 2, 11); got != 2 {
		t.Fatalf("τ(q3,t) = %d before insert", got)
	}
	inc.InsertEdge(11, 6) // (t, v4)
	checkIncremental(t, inc, "after chord insert")
	if got := edgeTau(inc, 2, 11); got != 3 {
		t.Fatalf("τ(q3,t) = %d after insert, want 3", got)
	}
	if got := edgeTau(inc, 1, 4); got != 4 {
		t.Fatalf("τ(q2,v2) changed to %d", got)
	}
}

func TestIncrementalSnapshotUsableForSearch(t *testing.T) {
	// Deleting one free-rider clique edge (p1,p2) drops that block below the
	// 4-truss; a snapshot must then drive MaxConnectedKTruss correctly.
	inc := NewIncremental(paperGraph())
	inc.DeleteEdge(8, 9)
	checkIncremental(t, inc, "after free-rider edge delete")
	snap := inc.Snapshot()
	mu, k, err := MaxConnectedKTruss(snap.G, snap, []int{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if k != 4 {
		t.Fatalf("k = %d, want 4", k)
	}
	if mu.Present(8) || mu.Present(9) {
		t.Fatal("degraded free riders should be out of the 4-truss")
	}
}

func TestIncrementalLargeRandomChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("churn test is slow")
	}
	// Bigger graph, checked at a few checkpoints and at the end.
	inc := incrementalOn(randomGraph(99, 60, 0.12))
	rng := rand.New(rand.NewSource(99))
	for step := 1; step <= 300; step++ {
		u, v := rng.Intn(60), rng.Intn(60)
		if u == v {
			continue
		}
		toggle(inc, u, v)
		if step%100 == 0 {
			checkIncremental(t, inc, "churn checkpoint")
		}
	}
	checkIncremental(t, inc, "after churn")
}

func incrementalTestGraphs() []*graph.Graph {
	var gs []*graph.Graph
	for seed := uint64(1); seed <= 6; seed++ {
		gs = append(gs,
			gen.ErdosRenyi(45, 0.18, seed),
			gen.BarabasiAlbert(50, 4, seed),
			gen.WattsStrogatz(48, 6, 0.2, seed),
		)
	}
	return gs
}

func TestIncrementalDeletionStream(t *testing.T) {
	for gi, g := range incrementalTestGraphs() {
		inc := NewIncremental(g)
		rng := gen.NewRNG(uint64(gi)*977 + 11)
		live := make([]int32, g.M())
		for e := range live {
			live[e] = int32(e)
		}
		for step := 0; step < 12 && len(live) > 0; step++ {
			i := rng.Intn(len(live))
			e := live[i]
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
			if !inc.DeleteEdgeByID(e) {
				t.Fatalf("graph %d: edge %d reported dead", gi, e)
			}
			checkIncremental(t, inc, "after delete")
		}
	}
}

func TestIncrementalMixedStream(t *testing.T) {
	for gi, g := range incrementalTestGraphs() {
		inc := NewIncremental(g)
		rng := gen.NewRNG(uint64(gi)*31337 + 7)
		var dead []int32
		for step := 0; step < 24; step++ {
			if len(dead) > 0 && rng.Intn(2) == 0 {
				// Revive a random dead edge.
				i := rng.Intn(len(dead))
				e := dead[i]
				dead[i] = dead[len(dead)-1]
				dead = dead[:len(dead)-1]
				if !inc.InsertEdgeByID(e) {
					t.Fatalf("graph %d: edge %d reported alive", gi, e)
				}
			} else {
				e := int32(rng.Intn(g.M()))
				if !inc.Graph().EdgeAlive(e) {
					continue
				}
				inc.DeleteEdgeByID(e)
				dead = append(dead, e)
			}
			checkIncremental(t, inc, "after update")
		}
	}
}

// TestIncrementalSnapshot checks both snapshot paths: the base-shared fast
// path (nothing dead) and the freeze-and-remap path, and that a snapshot is
// detached from later mutation.
func TestIncrementalSnapshot(t *testing.T) {
	g := gen.ErdosRenyi(40, 0.25, 5)
	inc := NewIncremental(g)

	d0 := inc.Snapshot()
	if d0.G != g {
		t.Fatal("fully-alive snapshot should share the base graph")
	}
	ref := Decompose(g)
	for e := range ref.Truss {
		if d0.Truss[e] != ref.Truss[e] {
			t.Fatalf("snapshot τ[%d] = %d, want %d", e, d0.Truss[e], ref.Truss[e])
		}
	}

	inc.DeleteEdgeByID(0)
	inc.DeleteEdgeByID(7)
	d1 := inc.Snapshot()
	if d1.G == g {
		t.Fatal("partial snapshot must freeze a new graph")
	}
	if d1.G.M() != g.M()-2 {
		t.Fatalf("snapshot has %d edges, want %d", d1.G.M(), g.M()-2)
	}
	refD := Decompose(d1.G)
	for e := range refD.Truss {
		if d1.Truss[e] != refD.Truss[e] {
			t.Fatalf("snapshot τ[%d] = %d, want %d", e, d1.Truss[e], refD.Truss[e])
		}
	}
	// Mutating the incremental must not alter the taken snapshot.
	before := append([]int32(nil), d1.Truss...)
	for e := int32(10); e < 25; e++ {
		inc.DeleteEdgeByID(e)
	}
	for e := range before {
		if d1.Truss[e] != before[e] {
			t.Fatal("snapshot labels mutated by later updates")
		}
	}

	// Random deletions spread over many vertices: a frozen edge's label is
	// read off the live base edge of the same rank, so every rank must line
	// up with a fresh decomposition of the frozen graph.
	for seed := uint64(1); seed <= 4; seed++ {
		g := gen.BarabasiAlbert(300, 6, seed)
		inc := NewIncremental(g)
		rng := gen.NewRNG(seed)
		for range g.M() / 20 {
			inc.DeleteEdgeByID(int32(rng.Intn(g.M())))
		}
		d := inc.Snapshot()
		if d.G.M() != inc.mu.M() {
			t.Fatalf("seed %d: snapshot has %d edges, live graph %d", seed, d.G.M(), inc.mu.M())
		}
		ref := Decompose(d.G)
		for e := range ref.Truss {
			if d.Truss[e] != ref.Truss[e] {
				t.Fatalf("seed %d: snapshot τ[%d] = %d, want %d", seed, e, d.Truss[e], ref.Truss[e])
			}
		}
	}
}

func TestResumeIncrementalRejectsBadState(t *testing.T) {
	g := gen.ErdosRenyi(20, 0.3, 1)
	mu := graph.NewMutable(g, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("ResumeIncremental accepted labels short of the base edge-ID space")
		}
	}()
	ResumeIncremental(mu, make([]int32, g.M()-1))
}
