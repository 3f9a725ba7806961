package gen

import (
	"fmt"

	"repro/internal/graph"
)

// CorpusGraph is one named graph of the differential-test corpus.
type CorpusGraph struct {
	Name string
	G    *graph.Graph
}

// DifferentialCorpus returns the one table of seeded graphs every
// differential test in the repository runs over: Erdős–Rényi at several
// densities, preferential-attachment power-law, planted-community networks,
// and pathological hand-built shapes (stars, clique chains, jumps in the
// support spectrum). Each call builds fresh graphs, so the cost is only paid
// by the tests that use it.
func DifferentialCorpus() []CorpusGraph {
	var cases []CorpusGraph
	// Erdős–Rényi across the density range where trussness structure
	// appears, several seeds each.
	for seed := uint64(0); seed < 5; seed++ {
		for _, p := range []float64{0.05, 0.15, 0.3, 0.5} {
			cases = append(cases, CorpusGraph{
				Name: fmt.Sprintf("er/p%.2f/seed%d", p, seed),
				G:    ErdosRenyi(40, p, 0xE120+seed),
			})
		}
	}
	// Power-law (preferential attachment): hubs give skewed frontier work.
	for seed := uint64(0); seed < 5; seed++ {
		cases = append(cases, CorpusGraph{
			Name: fmt.Sprintf("ba/seed%d", seed),
			G:    BarabasiAlbert(150, 4, 0xBA00+seed),
		})
	}
	// Planted communities: the triangle-rich shape of the paper's datasets.
	for seed := uint64(0); seed < 5; seed++ {
		g, _ := CommunityGraph(CommunityParams{
			N: 250, NumCommunities: 10, MinSize: 5, MaxSize: 24,
			Overlap: 0.35, PIntra: 0.5, BackgroundEdges: 120,
			Hubs: 2, HubDegree: 40, PlantedClique: 9, Seed: 0xD1FF00 + seed,
		})
		cases = append(cases, CorpusGraph{Name: fmt.Sprintf("community/seed%d", seed), G: g})
	}
	// Pathological shapes.
	cases = append(cases,
		CorpusGraph{"empty", graph.NewBuilder(0, 0).Build()},
		CorpusGraph{"single-edge", graph.FromEdges(2, [][2]int{{0, 1}})},
		CorpusGraph{"triangle", graph.FromEdges(3, [][2]int{{0, 1}, {1, 2}, {0, 2}})},
		CorpusGraph{"path", graph.FromEdges(8, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}, {6, 7}})},
		CorpusGraph{"star200", starGraph(200)},
		CorpusGraph{"clique-k9", cliqueChain(1, 9)},
		CorpusGraph{"clique-chain-6xk6", cliqueChain(6, 6)},
		CorpusGraph{"clique-chain-3xk8", cliqueChain(3, 8)},
		CorpusGraph{"star-of-cliques", starOfCliques(5, 6)},
		CorpusGraph{"paper-fig1a", paperFigure1a()},
		// A hub at either end of the ID order, and a community of 260 around
		// a hub: the support pass orients every edge by (degree, ID) rank, so
		// a hub's arcs point inward whichever ID it has, and the peel marks a
		// hub once per run of its edges and compacts its arcs as they die.
		CorpusGraph{"hub-lowest-id", withHub(ErdosRenyi(40, 0.2, 0x4B01), true)},
		CorpusGraph{"hub-highest-id", withHub(ErdosRenyi(40, 0.2, 0x4B02), false)},
		CorpusGraph{"hub260-community", withHub(ErdosRenyi(260, 0.05, 0x4B03), true)},
	)
	return cases
}

// withHub returns g plus one vertex adjacent to every other, numbered 0
// (the others shift up by one) when lowest is set and g.N() otherwise.
func withHub(g *graph.Graph, lowest bool) *graph.Graph {
	n := g.N()
	shift, hub := 0, n
	if lowest {
		shift, hub = 1, 0
	}
	b := graph.NewBuilder(n+1, g.M()+n)
	g.ForEachEdge(func(u, v int) { b.AddEdge(u+shift, v+shift) })
	for v := 0; v < n; v++ {
		b.AddEdge(hub, v+shift)
	}
	return b.Build()
}

// Rowed returns a twin of g built through graph.Compact with every vertex
// kept: the same vertex and edge IDs, plus the bit rows a small per-query
// graph carries (none above the size where rows stop paying). Differential
// tests hold the row kernels of the twin against the merge kernels of g.
func Rowed(g *graph.Graph) *graph.Graph {
	verts := make([]int32, g.N())
	member := graph.NewStamp(g.N())
	member.Next()
	for v := range verts {
		verts[v] = int32(v)
		member.Set(int32(v))
	}
	var c graph.Compact
	arcs := func(v int) ([]int32, []int32) { return g.Neighbors(v), g.NeighborEdgeIDs(v) }
	if err := c.Build(verts, member, make([]int32, g.N()), arcs, nil); err != nil {
		panic(err) // no poll, no error
	}
	return &c.G
}

// starGraph is a hub with `leaves` pendant edges: zero triangles, every
// label exactly 2, one giant frontier in the first parallel round.
func starGraph(leaves int) *graph.Graph {
	b := graph.NewBuilder(leaves+1, leaves)
	for i := 1; i <= leaves; i++ {
		b.AddEdge(0, i)
	}
	return b.Build()
}

// cliqueChain builds `count` copies of K_size where consecutive cliques
// share an edge: the shared edges sit in 2(size-2) triangles while their
// trussness stays size, and the support spectrum has a gap the level loop
// must jump over.
func cliqueChain(count, size int) *graph.Graph {
	b := graph.NewBuilder(count*(size-2)+2, count*size*(size-1)/2)
	for c := 0; c < count; c++ {
		base := c * (size - 2)
		for i := 0; i < size; i++ {
			for j := i + 1; j < size; j++ {
				b.AddEdge(base+i, base+j)
			}
		}
	}
	return b.Build()
}

// starOfCliques glues `arms` copies of K_size to one central hub vertex:
// high-trussness blobs hanging off trussness-2 spokes.
func starOfCliques(arms, size int) *graph.Graph {
	b := graph.NewBuilder(1+arms*size, arms*(size*(size-1)/2+1))
	for a := 0; a < arms; a++ {
		base := 1 + a*size
		for i := 0; i < size; i++ {
			for j := i + 1; j < size; j++ {
				b.AddEdge(base+i, base+j)
			}
		}
		b.AddEdge(0, base)
	}
	return b.Build()
}

// paperFigure1a is Figure 1(a) of the paper: q1=0 q2=1 q3=2 v1=3 v2=4 v3=5
// v4=6 v5=7 p1=8 p2=9 p3=10 t=11.
func paperFigure1a() *graph.Graph {
	return graph.FromEdges(12, [][2]int{
		{0, 1}, {0, 3}, {0, 4}, {1, 3}, {1, 4}, {3, 4},
		{5, 6}, {5, 7}, {6, 7}, {2, 5}, {2, 6}, {2, 7},
		{1, 7}, {4, 7}, {1, 6}, {1, 5}, {3, 7},
		{2, 8}, {2, 9}, {2, 10}, {8, 9}, {8, 10}, {9, 10},
		{0, 11}, {11, 2},
	})
}
