package truss

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// TestMaintainKTrussScratchDifferential drives random vertex-deletion
// streams on 50 seeded graphs and checks after every cascade that the
// maintained subgraph equals the maximal k-truss of the original graph
// minus the stream-deleted vertices, recomputed from scratch (full
// Decompose + filter), and that the maintained dense support table matches
// a fresh support count.
func TestMaintainKTrussScratchDifferential(t *testing.T) {
	graphs := make([]*graph.Graph, 0, 50)
	for seed := uint64(1); len(graphs) < 50; seed++ {
		switch seed % 3 {
		case 0:
			graphs = append(graphs, gen.ErdosRenyi(40, 0.22, seed))
		case 1:
			graphs = append(graphs, gen.BarabasiAlbert(44, 5, seed))
		default:
			graphs = append(graphs, gen.WattsStrogatz(42, 6, 0.25, seed))
		}
	}
	for gi, g := range graphs {
		full := Decompose(g)
		k := full.MaxTruss
		if k > 4 {
			k = 4
		}
		if k < 3 {
			continue // no interesting k-truss in this draw
		}
		// Start from the maximal k-truss of g.
		mu := graph.NewMutable(g, nil)
		sup := graph.MutableEdgeSupports(mu)
		DropBelowSupport(mu, sup, k)
		for v := 0; v < g.N(); v++ {
			if mu.Present(v) && mu.Degree(v) == 0 {
				mu.DeleteVertex(v)
			}
		}

		rng := gen.NewRNG(uint64(gi)*7919 + 3)
		chosen := map[int]bool{}
		scratch := new(MaintainScratch)
		for step := 0; step < 8 && mu.N() > 0; step++ {
			// Delete a random not-yet-chosen vertex (present in g).
			v := rng.Intn(g.N())
			for chosen[v] {
				v = (v + 1) % g.N()
			}
			chosen[v] = true
			MaintainKTrussScratch(mu, sup, k, []int{v}, scratch)

			// Reference: induced subgraph of g without the chosen vertices,
			// fully re-decomposed, filtered to trussness >= k.
			keep := make([]int, 0, g.N())
			for u := 0; u < g.N(); u++ {
				if !chosen[u] {
					keep = append(keep, u)
				}
			}
			refMu := graph.NewMutable(g, keep)
			refG := refMu.Freeze()
			refD := Decompose(refG)
			want := map[graph.EdgeKey]bool{}
			for e, tau := range refD.Truss {
				if tau >= k {
					want[refG.EdgeKeyOf(int32(e))] = true
				}
			}
			got := mu.EdgeKeys()
			if len(got) != len(want) {
				t.Fatalf("graph %d step %d (k=%d): cascade kept %d edges, from-scratch has %d",
					gi, step, k, len(got), len(want))
			}
			for _, key := range got {
				if !want[key] {
					t.Fatalf("graph %d step %d (k=%d): cascade kept %s, absent from scratch",
						gi, step, k, key)
				}
			}
			// Maintained supports must match a fresh count on the surviving
			// subgraph.
			fresh := graph.MutableEdgeSupports(mu)
			mu.ForEachLiveEdge(func(e int32, u, v int) {
				if sup[e] != fresh[e] {
					t.Fatalf("graph %d step %d: sup[%d] = %d, fresh count %d",
						gi, step, e, sup[e], fresh[e])
				}
			})
		}
	}
}
