package truss

import (
	"fmt"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// benchGraph50k is the ~50k-edge planted-community network shared by the
// decomposition, index and query benchmarks. Kept deterministic by the
// fixed seed.
var benchGraph50k *graph.Graph

func bench50k(b *testing.B) *graph.Graph {
	b.Helper()
	if benchGraph50k == nil {
		benchGraph50k, _ = gen.CommunityGraph(gen.CommunityParams{
			N: 9000, NumCommunities: 550, MinSize: 5, MaxSize: 32,
			Overlap: 0.3, PIntra: 0.5, BackgroundEdges: 4500,
			Hubs: 5, HubDegree: 110, PlantedClique: 22, Seed: 0x50C1,
		})
	}
	return benchGraph50k
}

func BenchmarkDecompose(b *testing.B) {
	g := bench50k(b)
	b.Logf("graph: n=%d m=%d", g.N(), g.M())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := Decompose(g)
		if d.MaxTruss < 3 {
			b.Fatal("unexpected decomposition")
		}
	}
}

// BenchmarkDecomposeNaive measures the map-based reference peel (map
// supports + lazy bucket queue) on the same graph, the baseline the array
// bucket queue is compared against.
func BenchmarkDecomposeNaive(b *testing.B) {
	g := bench50k(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := DecomposeNaive(g)
		if d.MaxTruss < 3 {
			b.Fatal("unexpected decomposition")
		}
	}
}

// benchDBLP is the dblp analogue used for the cold-build comparison — the
// registry's own network, so a retune of the dblp parameters automatically
// retunes this benchmark.
func benchDBLP(b *testing.B) *graph.Graph {
	b.Helper()
	nw, err := gen.NetworkByName("dblp")
	if err != nil {
		b.Fatal(err)
	}
	return nw.Graph()
}

// BenchmarkDecomposeParallel sweeps the forced level-synchronous peel over
// worker counts on the shared 50k-edge yardstick and on the dblp-scale
// analogue. The w1 points isolate the algorithmic overhead of the
// level-synchronous formulation versus the serial bucket queue; the scaling
// across w comes from the frontier sharding (run with GOMAXPROCS >= the
// worker count to observe it).
func BenchmarkDecomposeParallel(b *testing.B) {
	for _, bg := range []struct {
		name string
		g    *graph.Graph
	}{
		{"50k", bench50k(b)},
		{"dblp", benchDBLP(b)},
	} {
		for _, workers := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("%s/w%d", bg.name, workers), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					d := decomposeParallel(bg.g, workers)
					if d.MaxTruss < 3 {
						b.Fatal("unexpected decomposition")
					}
				}
			})
		}
	}
}

// BenchmarkDecomposeSerialDBLP is the serial baseline on the same dblp-scale
// graph, the denominator of the cold-build speedup ratio.
func BenchmarkDecomposeSerialDBLP(b *testing.B) {
	g := benchDBLP(b)
	b.Logf("graph: n=%d m=%d", g.N(), g.M())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := Decompose(g)
		if d.MaxTruss < 3 {
			b.Fatal("unexpected decomposition")
		}
	}
}
