package core

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/trussindex"
)

var (
	peelBenchIx *trussindex.Index
	peelBenchG0 *graph.Mutable
	peelBenchK  int32
	peelBenchQ  []int
)

func peelBenchSetup(tb testing.TB) (*graph.Mutable, int32, []int) {
	tb.Helper()
	if peelBenchG0 == nil {
		g, truth := gen.CommunityGraph(gen.CommunityParams{
			N: 9000, NumCommunities: 550, MinSize: 5, MaxSize: 32,
			Overlap: 0.3, PIntra: 0.5, BackgroundEdges: 4500,
			Hubs: 5, HubDegree: 110, PlantedClique: 22, Seed: 0x50C1,
		})
		ix := trussindex.Build(g)
		peelBenchIx = ix
		// Query: three members of the largest planted community, so G0 is a
		// substantial subgraph and the peel has real work to do.
		best := truth[0]
		for _, c := range truth {
			if len(c) > len(best) {
				best = c
			}
		}
		q := []int{best[0], best[len(best)/2], best[len(best)-1]}
		g0, k, err := ix.FindG0(q)
		if err != nil {
			tb.Fatal(err)
		}
		peelBenchG0, peelBenchK, peelBenchQ = g0, k, q
	}
	return peelBenchG0, peelBenchK, peelBenchQ
}

func BenchmarkGreedyPeel(b *testing.B) {
	g0, k, q := peelBenchSetup(b)
	b.Logf("g0: n=%d m=%d k=%d", g0.N(), g0.M(), k)
	ws := peelBenchIx.AcquireWorkspace()
	defer ws.Release()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := greedyPeel(g0, k, q, peelBulk, &ws.Peel, ws, &QueryStats{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGreedyPeelExact(b *testing.B) {
	g0, k, q := peelBenchSetup(b)
	ws := peelBenchIx.AcquireWorkspace()
	defer ws.Release()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := greedyPeel(g0, k, q, peelBulkExact, &ws.Peel, ws, &QueryStats{}); err != nil {
			b.Fatal(err)
		}
	}
}
