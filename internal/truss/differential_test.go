package truss

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// This file is the consolidated differential harness for every truss
// decomposition path in the repository. One corpus of seeded generator
// graphs (gen.DifferentialCorpus) is decomposed by:
//
//   - Decompose           (serial array bucket-queue peel, the reference)
//   - DecomposeParallel   (public entry; may take the serial fallback)
//   - decomposeParallel   (level-synchronous peel forced at 1/2/4/8 workers)
//   - DecomposeNaive      (retained seed-era map/lazy-bucket oracle)
//   - DecomposeCancelable (the poll-hooked serial peel on the LCTC
//     per-query path, with both a benign and a firing poll)
//   - Incremental          (a full insert-replay: every edge inserted one at
//     a time into an initially empty overlay, forward and reverse order)
//
// and every path must produce byte-identical labels. The capped peel
// (DecomposeCapped, the LCTC per-query path) is held to min(label, cap) at
// every cap, on a graph as a Builder makes it (forward support listing and
// marked-neighbour peel) and on the same graph as graph.Compact makes it (bit
// rows). The kernels underneath the maintenance cascade — merging adjacency
// lists, intersecting bit rows — are held to each other and to those supports
// (assertKernels). New decomposition implementations must be wired in here.

// assertSameLabels requires byte-identical decompositions: same edge-ID
// space, same Truss array, same vertex trussness, same max.
func assertSameLabels(t *testing.T, context string, got, want *Decomposition) {
	t.Helper()
	if got.MaxTruss != want.MaxTruss {
		t.Fatalf("%s: MaxTruss = %d, want %d", context, got.MaxTruss, want.MaxTruss)
	}
	if !slices.Equal(got.Truss, want.Truss) {
		for e := range want.Truss {
			if got.Truss[e] != want.Truss[e] {
				t.Fatalf("%s: τ%s = %d, want %d (first of %d-edge divergence)",
					context, want.G.EdgeKeyOf(int32(e)), got.Truss[e], want.Truss[e], len(want.Truss))
			}
		}
		t.Fatalf("%s: Truss length %d, want %d", context, len(got.Truss), len(want.Truss))
	}
	if !slices.Equal(got.VertexTruss, want.VertexTruss) {
		t.Fatalf("%s: vertex trussness diverged", context)
	}
}

// insertReplay rebuilds the decomposition of g purely through the streaming
// insertion path: an Incremental over an initially edgeless overlay, one
// InsertEdgeByID per edge in the given order. The final labels must be the
// exact decomposition.
func insertReplay(t *testing.T, g *graph.Graph, order []int32) *Decomposition {
	t.Helper()
	inc := ResumeIncremental(graph.NewMutableShell(g), make([]int32, g.M()))
	for _, e := range order {
		if !inc.InsertEdgeByID(e) {
			t.Fatalf("insert replay: edge %d rejected", e)
		}
	}
	return inc.Snapshot()
}

// errPollFired is the sentinel the cancellable-decomposition differential
// check aborts with.
var errPollFired = errors.New("poll fired")

func TestDifferentialAllDecompositionPaths(t *testing.T) {
	cases := gen.DifferentialCorpus()
	if len(cases) < 43 {
		t.Fatalf("differential corpus shrank to %d cases", len(cases))
	}
	for _, tc := range cases {
		want := Decompose(tc.G)
		assertSameLabels(t, tc.Name+"/parallel-public", DecomposeParallel(tc.G), want)
		for _, workers := range []int{1, 2, 4, 8} {
			got := decomposeParallel(tc.G, workers)
			assertSameLabels(t, fmt.Sprintf("%s/parallel-w%d", tc.Name, workers), got, want)
		}
		assertSameLabels(t, tc.Name+"/naive", DecomposeNaive(tc.G), want)

		// The cancellable peel (the LCTC per-query path) with a live but
		// never-firing poll must be label-identical, and a poll that fires
		// must abandon with the poll's error and no decomposition.
		polled := 0
		cancelable, err := DecomposeCancelable(tc.G, func() error { polled++; return nil })
		if err != nil {
			t.Fatalf("%s/cancelable: %v", tc.Name, err)
		}
		assertSameLabels(t, tc.Name+"/cancelable", cancelable, want)
		if tc.G.M() > 0 && polled == 0 {
			t.Fatalf("%s/cancelable: poll hook never invoked", tc.Name)
		}
		if tc.G.M() > 0 {
			if d, err := DecomposeCancelable(tc.G, func() error { return errPollFired }); err != errPollFired || d != nil {
				t.Fatalf("%s/cancelable: firing poll returned (%v, %v)", tc.Name, d, err)
			}
		}

		m := int32(tc.G.M())
		forward := make([]int32, m)
		for e := range forward {
			forward[e] = int32(e)
		}
		assertSameLabels(t, tc.Name+"/replay-fwd", insertReplay(t, tc.G, forward), want)
		reverse := make([]int32, m)
		for e := range reverse {
			reverse[e] = m - 1 - int32(e)
		}
		assertSameLabels(t, tc.Name+"/replay-rev", insertReplay(t, tc.G, reverse), want)

		// Both kernels of the per-query graph layer — the whole graph and a
		// strict subgraph of it, each as built (merge kernels) and as its
		// rowed twin (bit-row kernels).
		thinned := graph.NewMutable(tc.G, nil)
		for e := int32(0); e < m; e += 7 {
			thinned.DeleteEdgeByID(e)
		}
		for _, sub := range []struct {
			name string
			g    *graph.Graph
		}{{"whole", tc.G}, {"thinned", thinned.Freeze()}} {
			full := Decompose(sub.g)
			for _, kernel := range []struct {
				name string
				g    *graph.Graph
			}{{"merge", sub.g}, {"rows", gen.Rowed(sub.g)}} {
				context := fmt.Sprintf("%s/%s/%s", tc.Name, sub.name, kernel.name)
				assertKernels(t, context, kernel.g, sub.g)
				for _, capK := range append([]int32{1, 2, full.MaxTruss + 1}, full.Thresholds()...) {
					assertCapped(t, fmt.Sprintf("%s/cap%d", context, capK), kernel.g, full, capK, &capScratch)
				}
			}
		}
	}
}

// capScratch is shared by every capped decomposition of the harness, the
// way a pooled Expansion shares it between queries on graphs of any size.
var capScratch Scratch

// assertCapped holds DecomposeCapped(g, capK) against full, the whole
// decomposition of the same graph: every label is min(τ, capK).
func assertCapped(t *testing.T, context string, g *graph.Graph, full *Decomposition, capK int32, sc *Scratch) {
	t.Helper()
	polled := 0
	got, err := DecomposeCapped(g, capK, func() error { polled++; return nil }, sc)
	if err != nil {
		t.Fatalf("%s: %v", context, err)
	}
	if g.M() > 0 && polled == 0 {
		t.Fatalf("%s: poll hook never invoked", context)
	}
	want := &Decomposition{G: full.G, Truss: make([]int32, len(full.Truss)), VertexTruss: make([]int32, len(full.VertexTruss))}
	for e, k := range full.Truss {
		want.Truss[e] = min(k, capK)
	}
	want.finishVertexTruss()
	assertSameLabels(t, context, got, want)
}

// assertKernels holds every kernel of g — a graph as the per-query path
// builds it, with or without bit rows — against plain, the same graph from a
// Builder: edge lookup, supports, BFS, and the maintenance cascade after a
// random vertex set is deleted.
func assertKernels(t *testing.T, context string, g, plain *graph.Graph) {
	t.Helper()
	n := plain.N()
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if got, want := g.EdgeID(u, v), plain.EdgeID(u, v); got != want {
				t.Fatalf("%s: EdgeID(%d,%d) = %d, want %d", context, u, v, got, want)
			}
		}
	}
	wantSup := graph.EdgeSupports(plain)
	if got := graph.EdgeSupports(g); !slices.Equal(got, wantSup) {
		t.Fatalf("%s: EdgeSupports diverged", context)
	}

	// A random third of the vertices goes; what the cascade removes at each
	// level of the graph must be the same set on both sides, and the BFS from
	// every vertex of what is left must reach the same vertices in the same
	// order at the same distances.
	rng := gen.NewRNG(uint64(n)*31 + uint64(plain.M()))
	var victims []int
	for v := 0; v < n; v++ {
		if rng.Intn(3) == 0 {
			victims = append(victims, v)
		}
	}
	for _, k := range []int32{2, 3, 4, 6} {
		mu, ref := graph.NewMutable(g, nil), graph.NewMutable(plain, nil)
		sup := graph.MutableEdgeSupports(mu)
		if !slices.Equal(sup, wantSup) {
			t.Fatalf("%s: MutableEdgeSupports diverged", context)
		}
		gotV, gotE := MaintainKTruss(mu, sup, k, victims)
		wantV, wantE := MaintainKTruss(ref, slices.Clone(wantSup), k, victims)
		slices.Sort(gotV)
		slices.Sort(wantV)
		slices.Sort(gotE)
		slices.Sort(wantE)
		if !slices.Equal(gotV, wantV) || !slices.Equal(gotE, wantE) {
			t.Fatalf("%s: k=%d cascade removed %d vertices / %d edges, want %d / %d",
				context, k, len(gotV), len(gotE), len(wantV), len(wantE))
		}
		if got, want := graph.MutableEdgeSupports(mu), graph.MutableEdgeSupports(ref); !slices.Equal(got, want) {
			t.Fatalf("%s: k=%d supports after the cascade diverged", context, k)
		}
		gotDist, wantDist := make([]int32, n), make([]int32, n)
		gotSt, wantSt := graph.NewStamp(n), graph.NewStamp(n)
		for src := 0; src < n; src++ {
			gotQ := graph.BFSMarked(mu, src, gotDist, gotSt, nil)
			wantQ := graph.BFSMarked(ref, src, wantDist, wantSt, nil)
			if !slices.Equal(gotQ, wantQ) {
				t.Fatalf("%s: k=%d BFS from %d reached %v, want %v", context, k, src, gotQ, wantQ)
			}
			for _, v := range wantQ {
				if !gotSt.Marked(v) || gotDist[v] != wantDist[v] {
					t.Fatalf("%s: k=%d dist(%d,%d) = %d, want %d", context, k, src, v, gotDist[v], wantDist[v])
				}
			}
		}
	}
}
