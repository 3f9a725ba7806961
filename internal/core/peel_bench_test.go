package core

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/trussindex"
)

var (
	peelBenchIx *trussindex.Index
	peelBenchQ  []int
)

// peelBenchSetup builds the shared 59k-edge workload once and returns its
// index and query.
func peelBenchSetup(tb testing.TB) (*trussindex.Index, []int) {
	tb.Helper()
	if peelBenchIx == nil {
		g, truth := gen.CommunityGraph(gen.CommunityParams{
			N: 9000, NumCommunities: 550, MinSize: 5, MaxSize: 32,
			Overlap: 0.3, PIntra: 0.5, BackgroundEdges: 4500,
			Hubs: 5, HubDegree: 110, PlantedClique: 22, Seed: 0x50C1,
		})
		peelBenchIx = trussindex.Build(g)
		// Query: three members of the largest planted community, so G0 is a
		// substantial subgraph and the peel has real work to do.
		best := truth[0]
		for _, c := range truth {
			if len(c) > len(best) {
				best = c
			}
		}
		peelBenchQ = []int{best[0], best[len(best)/2], best[len(best)-1]}
	}
	return peelBenchIx, peelBenchQ
}

func BenchmarkGreedyPeel(b *testing.B) { benchmarkGreedyPeel(b, peelBulk) }

func BenchmarkGreedyPeelExact(b *testing.B) { benchmarkGreedyPeel(b, peelBulkExact) }

// benchmarkGreedyPeel peels the workload's G0 under rule, refilling it from
// the compact graph FindG0W built each iteration, as searchGlobal does.
func benchmarkGreedyPeel(b *testing.B, rule peelRule) {
	ix, q := peelBenchSetup(b)
	ws := ix.AcquireWorkspace()
	defer ws.Release()
	x, k, err := ix.FindG0W(q, ws)
	if err != nil {
		b.Fatal(err)
	}
	b.Logf("g0: n=%d m=%d k=%d", x.G.N(), x.G.M(), k)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := greedyPeel(x.Whole(), k, x.Q, rule, ws, &QueryStats{}); err != nil {
			b.Fatal(err)
		}
	}
}
