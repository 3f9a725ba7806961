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

// benchNetwork is the 50k yardstick for "50k" and otherwise a registry
// network, so a retune of its parameters automatically retunes the
// benchmarks that use it.
func benchNetwork(b *testing.B, name string) *graph.Graph {
	b.Helper()
	if name == "50k" {
		return bench50k(b)
	}
	nw, err := gen.NetworkByName(name)
	if err != nil {
		b.Fatal(err)
	}
	return nw.Graph()
}

// sinkSupports keeps the compiler from discarding a benchmarked support pass.
var sinkSupports []int32

// BenchmarkDecompose times the serial cold decomposition on the shared 50k
// yardstick and on the dblp and orkut analogues — orkut is the graph the
// coldstart_hotcache workload decomposes at server start.
func BenchmarkDecompose(b *testing.B) {
	for _, name := range []string{"50k", "dblp", "orkut"} {
		b.Run(name, func(b *testing.B) {
			g := benchNetwork(b, name)
			b.Logf("graph: n=%d m=%d", g.N(), g.M())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d := Decompose(g)
				if d.MaxTruss < 3 {
					b.Fatal("unexpected decomposition")
				}
			}
		})
	}
}

// BenchmarkEdgeSupports times the support pass that starts every cold
// decomposition.
func BenchmarkEdgeSupports(b *testing.B) {
	for _, name := range []string{"dblp", "orkut"} {
		b.Run(name, func(b *testing.B) {
			g := benchNetwork(b, name)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkSupports = graph.EdgeSupports(g)
			}
		})
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
		{"dblp", benchNetwork(b, "dblp")},
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
