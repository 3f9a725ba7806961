package truss

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/graph"
)

// paperGraph reproduces Figure 1(a); see graph package tests for the layout.
// q1=0 q2=1 q3=2 v1=3 v2=4 v3=5 v4=6 v5=7 p1=8 p2=9 p3=10 t=11.
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

func completeGraph(n int) *graph.Graph {
	b := graph.NewBuilder(n, n*(n-1)/2)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			b.AddEdge(u, v)
		}
	}
	return b.Build()
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

// referenceTrussness computes τ(e) for every edge by the definition:
// iteratively remove edges of minimum support; τ(e) = level when removed.
// This is an independent (slow, obviously-correct) oracle.
func referenceTrussness(g *graph.Graph) map[graph.EdgeKey]int32 {
	mu := graph.NewMutable(g, nil)
	out := make(map[graph.EdgeKey]int32, g.M())
	k := int32(2)
	for mu.M() > 0 {
		// Remove all edges with support <= k-2 until none remain.
		for {
			var victims []graph.EdgeKey
			for v := 0; v < mu.NumIDs(); v++ {
				if !mu.Present(v) {
					continue
				}
				mu.ForEachNeighbor(v, func(w int) {
					if w > v && int32(mu.CountCommonNeighbors(v, w)) <= k-2 {
						victims = append(victims, graph.Key(v, w))
					}
				})
			}
			if len(victims) == 0 {
				break
			}
			for _, e := range victims {
				u, v := e.Endpoints()
				if mu.HasEdge(u, v) {
					out[e] = k
					mu.DeleteEdge(u, v)
				}
			}
		}
		k++
	}
	return out
}

func TestDecomposeClique(t *testing.T) {
	for n := 3; n <= 8; n++ {
		g := completeGraph(n)
		d := Decompose(g)
		if d.MaxTruss != int32(n) {
			t.Fatalf("K%d max truss = %d, want %d", n, d.MaxTruss, n)
		}
		for e, k := range d.Truss {
			if k != int32(n) {
				t.Fatalf("K%d: τ%s = %d, want %d", n, g.EdgeKeyOf(int32(e)), k, n)
			}
		}
	}
}

func TestDecomposePath(t *testing.T) {
	b := graph.NewBuilder(5, 4)
	for i := 0; i < 4; i++ {
		b.AddEdge(i, i+1)
	}
	g := b.Build()
	d := Decompose(g)
	if d.MaxTruss != 2 {
		t.Fatalf("path max truss = %d, want 2", d.MaxTruss)
	}
	for e, k := range d.Truss {
		if k != 2 {
			t.Fatalf("τ%s = %d, want 2", g.EdgeKeyOf(int32(e)), k)
		}
	}
}

func TestDecomposeEmpty(t *testing.T) {
	d := Decompose(graph.NewBuilder(0, 0).Build())
	if d.MaxTruss != 0 || len(d.Truss) != 0 {
		t.Fatalf("empty decomposition: %+v", d)
	}
}

func TestDecomposePaperExample(t *testing.T) {
	// Paper §2: τ(e(q2,v2)) = 4 even though sup = 3; τ(q2) = 4; τ̄(∅) = 4;
	// the pendant edges through t have trussness 2.
	g := paperGraph()
	d := Decompose(g)
	if got := d.EdgeTrussOf(1, 4); got != 4 {
		t.Fatalf("τ(q2,v2) = %d, want 4", got)
	}
	if d.VertexTruss[1] != 4 {
		t.Fatalf("τ(q2) = %d, want 4", d.VertexTruss[1])
	}
	if d.MaxTruss != 4 {
		t.Fatalf("τ̄(∅) = %d, want 4", d.MaxTruss)
	}
	if d.EdgeTrussOf(0, 11) != 2 || d.EdgeTrussOf(2, 11) != 2 {
		t.Fatal("pendant edges should have trussness 2")
	}
}

func TestDecomposeMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		g := randomGraph(seed, 22, 0.3)
		want := referenceTrussness(g)
		got := Decompose(g).EdgeTrussMap()
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d edges decomposed, want %d", seed, len(got), len(want))
		}
		for e, k := range want {
			if got[e] != k {
				t.Fatalf("seed %d: τ%s = %d, want %d", seed, e, got[e], k)
			}
		}
	}
}

// diffDecompositions fails the test unless the array-based and reference
// decompositions agree on every edge.
func diffDecompositions(t *testing.T, context string, got, want *Decomposition) {
	t.Helper()
	if got.MaxTruss != want.MaxTruss {
		t.Fatalf("%s: max truss %d, reference says %d", context, got.MaxTruss, want.MaxTruss)
	}
	if len(got.Truss) != len(want.Truss) {
		t.Fatalf("%s: %d edges, reference has %d", context, len(got.Truss), len(want.Truss))
	}
	wantMap := want.EdgeTrussMap()
	for e, k := range got.EdgeTrussMap() {
		if wantMap[e] != k {
			t.Fatalf("%s: τ%s = %d, reference says %d", context, e, k, wantMap[e])
		}
	}
	for v := range want.VertexTruss {
		if got.VertexTruss[v] != want.VertexTruss[v] {
			t.Fatalf("%s: τ(%d) = %d, reference says %d",
				context, v, got.VertexTruss[v], want.VertexTruss[v])
		}
	}
}

// TestDecomposeDifferentialVsNaive runs the array-based Decompose against the
// retained naive (map-based, lazy-bucket) reference on ~50 seeded graphs:
// Erdős–Rényi at several densities plus planted-community networks from
// internal/gen, the triangle-rich shape the paper's datasets have.
func TestDecomposeDifferentialVsNaive(t *testing.T) {
	cases := 0
	for seed := int64(0); seed < 10; seed++ {
		for _, p := range []float64{0.08, 0.2, 0.35, 0.5} {
			g := randomGraph(seed*31+int64(p*100), 26, p)
			diffDecompositions(t, fmt.Sprintf("er seed=%d p=%.2f", seed, p),
				Decompose(g), DecomposeNaive(g))
			cases++
		}
	}
	for seed := uint64(0); seed < 10; seed++ {
		g, _ := gen.CommunityGraph(gen.CommunityParams{
			N: 300, NumCommunities: 12, MinSize: 5, MaxSize: 25,
			Overlap: 0.3, PIntra: 0.5, BackgroundEdges: 150,
			PlantedClique: 9, Seed: 0xD1FF + seed,
		})
		diffDecompositions(t, fmt.Sprintf("community seed=%d", seed),
			Decompose(g), DecomposeNaive(g))
		cases++
	}
	if cases < 50 {
		t.Fatalf("differential coverage shrank to %d cases, want >= 50", cases)
	}
}

// labelsLine renders one line of testdata/network_labels.txt: the network,
// its size, its maximum trussness and an FNV-1a hash of the Truss array.
func labelsLine(name string, d *Decomposition) string {
	h := fnv.New64a()
	var buf [4]byte
	for _, k := range d.Truss {
		binary.LittleEndian.PutUint32(buf[:], uint32(k))
		h.Write(buf[:])
	}
	return fmt.Sprintf("%s n=%d m=%d max_truss=%d truss_fnv=%016x", name, d.G.N(), d.G.M(), d.MaxTruss, h.Sum64())
}

// TestDecomposeNetworkLabels pins the labels of the serial and the parallel
// decomposition on three registry networks to testdata/network_labels.txt.
// The differential corpus holds graphs of a few hundred vertices; these are
// the graphs the servers decompose at start-up, large enough for every branch
// of the peel's bookkeeping to run many times.
func TestDecomposeNetworkLabels(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the facebook, dblp and orkut networks")
	}
	raw, err := os.ReadFile("testdata/network_labels.txt")
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSpace(string(raw)), "\n")
	names := []string{"facebook", "dblp", "orkut"}
	if len(want) != len(names) {
		t.Fatalf("label table has %d lines, want %d", len(want), len(names))
	}
	for i, name := range names {
		nw, err := gen.NetworkByName(name)
		if err != nil {
			t.Fatal(err)
		}
		g := nw.Graph()
		if got := labelsLine(name, Decompose(g)); got != want[i] {
			t.Errorf("Decompose:\n got  %s\n want %s", got, want[i])
		}
		if got := labelsLine(name, decomposeParallel(g, 2)); got != want[i] {
			t.Errorf("decomposeParallel(g, 2):\n got  %s\n want %s", got, want[i])
		}
	}
}

// DecomposeMutable computes the truss decomposition of the current state of
// mu. The input is not modified. When mu is its base graph in full (the
// common case for freshly wrapped graphs), the base is decomposed directly;
// otherwise the live subgraph is frozen first.
func DecomposeMutable(mu *graph.Mutable) *Decomposition {
	if mu.M() == mu.Base().M() {
		d := Decompose(mu.Base())
		if len(d.VertexTruss) < mu.NumIDs() {
			vt := make([]int32, mu.NumIDs())
			copy(vt, d.VertexTruss)
			d.VertexTruss = vt
		}
		return d
	}
	return Decompose(mu.Freeze())
}

func TestDecomposeMutableMatchesGraph(t *testing.T) {
	g := randomGraph(7, 25, 0.25)
	mu := graph.NewMutable(g, nil)
	d1 := Decompose(g)
	d2 := DecomposeMutable(mu)
	diffDecompositions(t, "mutable vs graph", d2, d1)
	// The input mutable must be untouched.
	if mu.M() != g.M() {
		t.Fatal("DecomposeMutable modified its input")
	}
	// A genuinely shrunken overlay must decompose its live subgraph only.
	mu.DeleteVertex(0)
	d3 := DecomposeMutable(mu)
	d4 := Decompose(mu.Freeze())
	diffDecompositions(t, "shrunk overlay", d3, d4)
}

func TestTrussnessAtMostSupportPlusTwo(t *testing.T) {
	// τ(e) <= sup_G(e) + 2 always (noted in paper §2).
	f := func(seed int64) bool {
		g := randomGraph(seed, 20, 0.3)
		sup := graph.EdgeSupports(g)
		for e, k := range Decompose(g).Truss {
			if k > sup[e]+2 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestKTrussInsideKMinusOneCore(t *testing.T) {
	// §3.1: a connected k-truss is a (k-1)-core, so τ(v) - 1 <= core(v).
	f := func(seed int64) bool {
		g := randomGraph(seed, 20, 0.35)
		d := Decompose(g)
		core := graph.CoreNumbers(g)
		for v := 0; v < g.N(); v++ {
			if d.VertexTruss[v] > 0 && int(d.VertexTruss[v])-1 > core[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestHierarchyKTrussInKMinus1Truss(t *testing.T) {
	// §3.1: the maximal k-truss is contained in the maximal (k-1)-truss.
	g := randomGraph(3, 30, 0.3)
	d := Decompose(g)
	for k := d.MaxTruss; k >= 3; k-- {
		hi := d.EdgesAtLeast(k)
		lo := make(map[graph.EdgeKey]bool)
		for _, e := range d.EdgesAtLeast(k - 1) {
			lo[e] = true
		}
		for _, e := range hi {
			if !lo[e] {
				t.Fatalf("edge %s in %d-truss but not (%d-1)-truss", e, k, k)
			}
		}
	}
}

func TestQueryUpperBound(t *testing.T) {
	g := paperGraph()
	d := Decompose(g)
	if k := d.QueryUpperBound([]int{0, 1, 2}); k != 4 {
		t.Fatalf("bound = %d, want 4", k)
	}
	if k := d.QueryUpperBound([]int{11}); k != 2 { // t only touches trussness-2 edges
		t.Fatalf("bound(t) = %d, want 2", k)
	}
	if k := d.QueryUpperBound(nil); k != 4 {
		t.Fatalf("bound(∅) = τ̄(∅) = %d, want 4", k)
	}
	if k := d.QueryUpperBound([]int{-3}); k != 0 {
		t.Fatalf("bound(bad) = %d, want 0", k)
	}
}
