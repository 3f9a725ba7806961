package trussindex

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// The query benchmarks run on the same generated 59k-edge workload as the
// decomposition/peeling benchmarks, so their numbers compare directly.
var (
	queryBenchIx *Index
	queryBenchG  *graph.Graph
	queryBenchQ  []int
)

func queryBenchSetup(b *testing.B) (*Index, []int) {
	b.Helper()
	if queryBenchIx == nil {
		g, truth := gen.CommunityGraph(gen.CommunityParams{
			N: 9000, NumCommunities: 550, MinSize: 5, MaxSize: 32,
			Overlap: 0.3, PIntra: 0.5, BackgroundEdges: 4500,
			Hubs: 5, HubDegree: 110, PlantedClique: 22, Seed: 0x50C1,
		})
		best := truth[0]
		for _, c := range truth {
			if len(c) > len(best) {
				best = c
			}
		}
		queryBenchG = g
		queryBenchIx = Build(g)
		queryBenchQ = []int{best[0], best[len(best)/2], best[len(best)-1]}
	}
	return queryBenchIx, queryBenchQ
}

func BenchmarkBuildIndex(b *testing.B) {
	ix, _ := queryBenchSetup(b)
	g, d := ix.Graph(), ix.Decomposition()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BuildFromDecomposition(g, d)
	}
}

func BenchmarkFindG0(b *testing.B) {
	ix, q := queryBenchSetup(b)
	benchmarkFind(b, func(ws *Workspace) (*Expansion, int32, error) { return ix.FindG0W(q, ws) })
}

func BenchmarkFindKTruss(b *testing.B) {
	ix, q := queryBenchSetup(b)
	benchmarkFind(b, func(ws *Workspace) (*Expansion, int32, error) { return ix.FindKTrussW(q, 4, ws) })
}

// benchmarkFind times find on one workspace of the benchmark index, as a
// query stream on a warm pooled workspace runs it.
func benchmarkFind(b *testing.B, find func(*Workspace) (*Expansion, int32, error)) {
	ws := queryBenchIx.AcquireWorkspace()
	defer ws.Release()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x, _, err := find(ws)
		if err != nil {
			b.Fatal(err)
		}
		if x.G.N() == 0 {
			b.Fatal("empty G0")
		}
	}
}
