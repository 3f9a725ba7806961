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
// (DecomposeMutableCapped, the LCTC per-query path) is held to min(label,
// cap) and to recounted supports at every cap. New decomposition
// implementations must be wired in here.

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
	if len(cases) < 35 {
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

		// The capped peel at every level of the graph, at and below the
		// floor, and above the top — on the whole graph (decomposed in
		// place) and on a strict subgraph (decomposed on a frozen copy).
		whole := graph.NewMutable(tc.G, nil)
		thinned := whole.Clone()
		for e := int32(0); e < m; e += 7 {
			thinned.DeleteEdgeByID(e)
		}
		for _, capK := range append([]int32{1, 2, want.MaxTruss + 1}, want.Thresholds()...) {
			assertCapped(t, fmt.Sprintf("%s/cap%d/whole", tc.Name, capK), whole, capK)
			assertCapped(t, fmt.Sprintf("%s/cap%d/thinned", tc.Name, capK), thinned, capK)
		}
	}
}

// assertCapped holds DecomposeMutableCapped(mu, capK) against the full
// decomposition of mu: every label is min(τ, capK), and the residual support
// of every edge with τ >= capK is its triangle count inside the subgraph of
// such edges, recounted from scratch.
func assertCapped(t *testing.T, context string, mu *graph.Mutable, capK int32) {
	t.Helper()
	full := DecomposeMutable(mu)
	got, sup, err := DecomposeMutableCapped(mu, capK, func() error { return nil })
	if err != nil {
		t.Fatalf("%s: %v", context, err)
	}
	want := &Decomposition{G: full.G, Truss: make([]int32, len(full.Truss)), VertexTruss: make([]int32, len(full.VertexTruss))}
	atLeast := graph.NewMutableShell(full.G)
	for e, k := range full.Truss {
		want.Truss[e] = min(k, capK)
		if k >= capK {
			atLeast.AddEdgeByID(int32(e))
		}
	}
	want.finishVertexTruss()
	assertSameLabels(t, context, got, want)
	recount := graph.MutableEdgeSupports(atLeast)
	atLeast.ForEachLiveEdge(func(e int32, _, _ int) {
		if sup[e] != recount[e] {
			t.Fatalf("%s: residual support of %s = %d, recount inside the >=%d subgraph = %d",
				context, full.G.EdgeKeyOf(e), sup[e], capK, recount[e])
		}
	})
}
