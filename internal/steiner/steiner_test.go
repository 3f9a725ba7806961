package steiner

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/trussindex"
)

// paperGraph is Figure 1(a); q1=0 q2=1 q3=2 v1=3 v2=4 v3=5 v4=6 v5=7
// p1=8 p2=9 p3=10 t=11.
func paperGraph() *graph.Graph {
	edges := [][2]int{
		{0, 1}, {0, 3}, {0, 4}, {1, 3}, {1, 4}, {3, 4},
		{5, 6}, {5, 7}, {6, 7}, {2, 5}, {2, 6}, {2, 7},
		{1, 7}, {4, 7}, {1, 6}, {1, 5}, {3, 7},
		{2, 8}, {2, 9}, {2, 10}, {8, 9}, {8, 10}, {9, 10},
		{0, 11}, {11, 2},
	}
	return graph.FromEdges(12, edges)
}

func randomGraph(seed int64, n int, p float64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n, 0)
	b.EnsureVertex(n - 1)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				b.AddEdge(u, v)
			}
		}
	}
	return b.Build()
}

func TestTrussDistancePaperSection5(t *testing.T) {
	// §5.2 worked example with γ=3: the tree T1 path q2..q3 through t has
	// ˆdist = 3 + 3·(4-2) = 9 hmm the paper says 8 for dist(q2,q3) in T1 —
	// T1 = {(q2,q1),(q1,t),(t,q3)} so dist_T1(q2,q3) = 3 and min τ = 2:
	// ˆdist = 3 + 3·(4−2) = 9. The paper's arithmetic (3+6=8) notwithstanding,
	// Definition 7 gives 9; what matters is the comparison with T2.
	// In G (not restricted to T1), the *optimal* truss distance q2→q3 is
	// min over thresholds; at t=4: shortest 4-truss path q2-v4-q3 has 2 hops
	// → 2 + 0 = 2.
	g := paperGraph()
	ix := trussindex.Build(g)
	if ix.MaxTruss() != 4 {
		t.Fatalf("τ̄(∅) = %d, want 4", ix.MaxTruss())
	}
	m := NewMetric(ix, 3)
	d, thr := m.TrussDistance(1, 2) // q2 → q3
	if d != 2 {
		t.Fatalf("ˆdist(q2,q3) = %f, want 2", d)
	}
	if thr != 4 {
		t.Fatalf("realizing threshold = %d, want 4", thr)
	}
	// Against the explicit-path oracle.
	pathT1 := []int{1, 0, 11, 2} // q2-q1-t-q3
	if got := PathTrussDistance(ix, pathT1, 3); got != 9 {
		t.Fatalf("T1 path truss distance = %f, want 3+3·2 = 9", got)
	}
	pathT2 := []int{1, 6, 2} // q2-v4-q3, all trussness-4 edges
	if got := PathTrussDistance(ix, pathT2, 3); got != 2 {
		t.Fatalf("T2 path truss distance = %f, want 2", got)
	}
}

func TestTrussDistanceGammaZeroIsHops(t *testing.T) {
	g := paperGraph()
	ix := trussindex.Build(g)
	m := NewMetric(ix, 0)
	hops := graph.Distances(g, 0)
	d, _ := m.DistancesFrom(0)
	for v := 0; v < g.N(); v++ {
		if hops[v] == graph.Unreachable {
			if !math.IsInf(d[v], 1) {
				t.Fatalf("vertex %d: want Inf", v)
			}
			continue
		}
		if d[v] != float64(hops[v]) {
			t.Fatalf("vertex %d: truss distance %f != hops %d at γ=0", v, d[v], hops[v])
		}
	}
}

func TestTrussDistanceMatchesBruteForce(t *testing.T) {
	// Oracle: enumerate all simple paths up to length 6 on small graphs and
	// take the minimum Definition-7 value.
	for seed := int64(0); seed < 6; seed++ {
		g := randomGraph(seed, 12, 0.3)
		ix := trussindex.Build(g)
		m := NewMetric(ix, 2)
		d, _ := m.DistancesFrom(0)
		want := brutePathDistances(ix, 0, 2)
		for v := 0; v < g.N(); v++ {
			// The brute force is capped at 6 hops; skip longer optima.
			if want[v] > 6+2*float64(ix.MaxTruss()) {
				continue
			}
			if math.IsInf(want[v], 1) {
				continue
			}
			if math.Abs(d[v]-want[v]) > 1e-9 {
				t.Fatalf("seed %d vertex %d: truss distance %f, brute force %f", seed, v, d[v], want[v])
			}
		}
	}
}

func brutePathDistances(ix *trussindex.Index, src int, gamma float64) []float64 {
	g := ix.Graph()
	n := g.N()
	best := make([]float64, n)
	for i := range best {
		best[i] = Inf
	}
	best[src] = 0
	var dfs func(v int, visited []bool, path []int)
	dfs = func(v int, visited []bool, path []int) {
		if len(path) > 7 { // up to 6 edges
			return
		}
		if len(path) > 1 {
			if d := PathTrussDistance(ix, path, gamma); d < best[v] {
				best[v] = d
			}
		}
		for _, w := range g.Neighbors(v) {
			if !visited[w] {
				visited[w] = true
				dfs(int(w), visited, append(path, int(w)))
				visited[w] = false
			}
		}
	}
	visited := make([]bool, n)
	visited[src] = true
	dfs(src, visited, []int{src})
	return best
}

func TestPathAtThreshold(t *testing.T) {
	g := paperGraph()
	ix := trussindex.Build(g)
	m := NewMetric(ix, 3)
	// At threshold 4 the path q2→q3 must avoid t.
	path := m.PathAtThreshold(1, 2, 4)
	if len(path) != 3 {
		t.Fatalf("path = %v, want 2 hops", path)
	}
	for _, v := range path {
		if v == 11 {
			t.Fatal("threshold-4 path must not use t")
		}
	}
	if PathMinTruss(ix, path) < 4 {
		t.Fatal("path uses a low-trussness edge")
	}
	// Unreachable at threshold above max.
	if m.PathAtThreshold(1, 2, 5) != nil {
		t.Fatal("no 5-truss path exists")
	}
}

func TestSteinerTreePrefersHighTrussness(t *testing.T) {
	// §5.2: with γ=3 the Steiner tree for Q={q1,q2,q3} should avoid the
	// trussness-2 shortcut through t and stay in the 4-truss.
	g := paperGraph()
	ix := trussindex.Build(g)
	tr, err := Build(ix, []int{0, 1, 2}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if tr.MinTruss != 4 {
		t.Fatalf("tree min trussness = %d, want 4", tr.MinTruss)
	}
	for _, v := range tr.Vertices {
		if v == 11 {
			t.Fatal("Steiner tree must avoid t under truss distance")
		}
	}
	// Tree property: |E| = |V| - 1 and connected.
	if len(tr.Edges) != len(tr.Vertices)-1 {
		t.Fatalf("not a tree: %d vertices, %d edges", len(tr.Vertices), len(tr.Edges))
	}
	mu := graph.NewMutableFromEdges(g.N(), tr.Edges)
	if !graph.Connected(mu, tr.Terminals) {
		t.Fatal("tree does not connect terminals")
	}
}

func TestSteinerTreeHopMetricUsesShortcut(t *testing.T) {
	// With γ=0, the hop-optimal tree q1-t-q3 + q1-q2 (weight 3) may route
	// through t; at minimum its total weight must be <= the truss-aware one.
	g := paperGraph()
	ix := trussindex.Build(g)
	hop, err := Build(ix, []int{0, 1, 2}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(hop.Edges) > 3 {
		t.Fatalf("hop Steiner tree has %d edges, expected <= 3", len(hop.Edges))
	}
}

func TestSteinerSingleTerminal(t *testing.T) {
	g := paperGraph()
	ix := trussindex.Build(g)
	tr, err := Build(ix, []int{2, 2, 2}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Vertices) != 1 || len(tr.Edges) != 0 {
		t.Fatalf("singleton tree: %v", tr)
	}
	if tr.MinTruss != 4 { // τ(q3) = 4
		t.Fatalf("MinTruss = %d, want τ(q3) = 4", tr.MinTruss)
	}
}

func TestSteinerDisconnected(t *testing.T) {
	g := graph.FromEdges(4, [][2]int{{0, 1}, {2, 3}})
	ix := trussindex.Build(g)
	if _, err := Build(ix, []int{0, 2}, 1); !errors.Is(err, ErrDisconnected) {
		t.Fatalf("err = %v, want ErrDisconnected", err)
	}
	if _, err := Build(ix, nil, 1); err == nil {
		t.Fatal("empty terminals must fail")
	}
	if _, err := Build(ix, []int{-1}, 1); err == nil {
		t.Fatal("out-of-range terminal must fail")
	}
}

// TestSteinerRandomTreeInvariants holds Build to the definition of its
// output on random graphs: a tree of graph edges over the distinct
// terminals with no non-terminal leaf, whose Vertices are the terminals
// plus the endpoints of its Edges and whose MinTruss is the least τ on
// them (the terminal's τ for a one-vertex tree). Queries have 2 to 6
// vertices, drawn with repetition.
func TestSteinerRandomTreeInvariants(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		g := randomGraph(seed, 25, 0.15)
		ix := trussindex.Build(g)
		rng := rand.New(rand.NewSource(seed))
		for size := 2; size <= 6; size++ {
			q := make([]int, size)
			for i := range q {
				q[i] = rng.Intn(25)
			}
			q[size-1] = q[rng.Intn(size)] // at least one repeat
			for _, gamma := range []float64{0, 3} {
				tr, err := Build(ix, q, gamma)
				if errors.Is(err, ErrDisconnected) {
					continue
				}
				if err != nil {
					t.Fatalf("seed %d q %v γ %v: %v", seed, q, gamma, err)
				}
				checkTree(t, fmt.Sprintf("seed %d q %v γ %v", seed, q, gamma), g, ix, tr)
			}
		}
	}
}

func checkTree(t *testing.T, name string, g *graph.Graph, ix *trussindex.Index, tr *Tree) {
	t.Helper()
	if !slices.Equal(tr.Terminals, dedupe(tr.Terminals)) {
		t.Fatalf("%s: terminals %v not distinct and ascending", name, tr.Terminals)
	}
	if len(tr.Edges) != len(tr.Vertices)-1 {
		t.Fatalf("%s: not a tree (%d vertices, %d edges)", name, len(tr.Vertices), len(tr.Edges))
	}
	mu := graph.NewMutableFromEdges(g.N(), tr.Edges)
	for _, v := range tr.Vertices {
		mu.EnsureVertex(v)
	}
	if !graph.Connected(mu, tr.Terminals) {
		t.Fatalf("%s: terminals not connected", name)
	}
	if graph.ComponentCount(mu) != 1 {
		t.Fatalf("%s: tree not connected", name)
	}
	// Vertices are the terminals plus the endpoints of Edges, sorted.
	want := slices.Clone(tr.Terminals)
	minTruss := int32(math.MaxInt32)
	for _, e := range tr.Edges {
		u, v := e.Endpoints()
		if !g.HasEdge(u, v) {
			t.Fatalf("%s: phantom edge %s", name, e)
		}
		want = append(want, u, v)
		minTruss = min(minTruss, ix.EdgeTruss(u, v))
	}
	if len(tr.Edges) == 0 {
		minTruss = ix.VertexTruss(tr.Terminals[0])
	}
	if want = dedupe(want); !slices.Equal(tr.Vertices, want) {
		t.Fatalf("%s: Vertices %v, want terminals plus edge endpoints %v", name, tr.Vertices, want)
	}
	if tr.MinTruss != minTruss {
		t.Fatalf("%s: MinTruss %d, want the least edge τ %d", name, tr.MinTruss, minTruss)
	}
	// Non-terminal leaves must have been pruned.
	for _, v := range tr.Vertices {
		if mu.Degree(v) <= 1 && !slices.Contains(tr.Terminals, v) {
			t.Fatalf("%s: unpruned non-terminal leaf %d", name, v)
		}
	}
}
