package trussindex

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/truss"
)

// paperGraph is Figure 1(a); see internal/truss tests for the derivation.
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

// figure4Graph is the paper's Figure 4 example for Algorithm 2:
// q1=0 q2=1 v1=2 v2=3 v3=4 v4=5 t1=6 t2=7. Two 4-truss blocks joined only
// by the trussness-2 edge (t1,t2).
func figure4Graph() *graph.Graph {
	edges := [][2]int{
		// left 4-truss: q1 with v1, v2, t1 — 4-clique
		{0, 2}, {0, 3}, {0, 6}, {2, 3}, {2, 6}, {3, 6},
		// right 4-truss: q2 with v3, v4, t2 — 4-clique
		{1, 4}, {1, 5}, {1, 7}, {4, 5}, {4, 7}, {5, 7},
		// the weak bridge
		{6, 7},
	}
	return graph.FromEdges(8, edges)
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

// findG0 runs FindG0W on a workspace of its own and returns G0 copied onto
// an overlay of the index's graph.
func findG0(t *testing.T, ix *Index, q []int) (*graph.Mutable, int32, error) {
	t.Helper()
	ws := ix.AcquireWorkspace()
	defer ws.Release()
	x, k, err := ix.FindG0W(q, ws)
	return onIndexGraph(t, ix, x), k, err
}

// findKTruss is findG0 for FindKTrussW.
func findKTruss(t *testing.T, ix *Index, q []int, k int32) (*graph.Mutable, error) {
	t.Helper()
	ws := ix.AcquireWorkspace()
	defer ws.Release()
	x, _, err := ix.FindKTrussW(q, k, ws)
	return onIndexGraph(t, ix, x), err
}

// onIndexGraph copies a compact graph's edges onto an overlay of the index's
// graph (nil for nil), checking that its vertex map covers the same vertices.
func onIndexGraph(t *testing.T, ix *Index, x *Expansion) *graph.Mutable {
	t.Helper()
	if x == nil {
		return nil
	}
	mu := graph.NewMutableShell(ix.g)
	for _, e := range x.Edge {
		mu.AddEdgeByID(e)
	}
	if mu.N() != len(x.Vert) || mu.M() != x.G.M() {
		t.Fatalf("compact graph has %d vertices %d edges, its edges span %d vertices", len(x.Vert), x.G.M(), mu.N())
	}
	for _, v := range x.Vert {
		if !mu.Present(int(v)) {
			t.Fatalf("compact vertex %d has no edge", v)
		}
	}
	return mu
}

func TestIndexLookups(t *testing.T) {
	g := paperGraph()
	ix := Build(g)
	if ix.MaxTruss() != 4 {
		t.Fatalf("τ̄(∅) = %d, want 4", ix.MaxTruss())
	}
	if ix.EdgeTruss(1, 4) != 4 { // τ(q2,v2) = 4
		t.Fatalf("τ(q2,v2) = %d, want 4", ix.EdgeTruss(1, 4))
	}
	if ix.EdgeTruss(0, 11) != 2 {
		t.Fatalf("τ(q1,t) = %d, want 2", ix.EdgeTruss(0, 11))
	}
	if ix.EdgeTruss(0, 5) != 0 {
		t.Fatal("absent edge should report trussness 0")
	}
	if ix.VertexTruss(1) != 4 || ix.VertexTruss(11) != 2 {
		t.Fatalf("vertex trussness: τ(q2)=%d τ(t)=%d", ix.VertexTruss(1), ix.VertexTruss(11))
	}
	if ix.VertexTruss(-1) != 0 || ix.VertexTruss(99) != 0 {
		t.Fatal("out-of-range vertex trussness should be 0")
	}
}

func TestIndexAdjacencySortedByTruss(t *testing.T) {
	g := paperGraph()
	ix := Build(g)
	for v := 0; v < g.N(); v++ {
		lo, hi := ix.arcRange(v)
		ts := ix.nbrTruss[lo:hi]
		nb := ix.nbr[lo:hi]
		for i := 1; i < len(ts); i++ {
			if ts[i] > ts[i-1] {
				t.Fatalf("vertex %d adjacency not sorted by descending trussness: %v", v, ts)
			}
			if ts[i] == ts[i-1] && nb[i] <= nb[i-1] {
				t.Fatalf("vertex %d: equal-trussness neighbors not ascending: %v / %v", v, nb, ts)
			}
		}
		if len(ts) > 0 && ts[0] != ix.VertexTruss(v) {
			t.Fatalf("vertex %d: first edge τ=%d != vertex τ=%d", v, ts[0], ix.VertexTruss(v))
		}
		// The arc metadata must agree with the graph: nbrEID[i] really is
		// the edge (v, nbr[i]) and nbrTruss matches the dense table.
		for i := range nb {
			e := ix.nbrEID[lo+int32(i)]
			if g.EdgeID(v, int(nb[i])) != e {
				t.Fatalf("vertex %d arc %d: eid %d != EdgeID(%d,%d)", v, i, e, v, nb[i])
			}
			if ix.edgeTruss[e] != ts[i] {
				t.Fatalf("vertex %d arc %d: τ %d != edgeTruss[%d]=%d", v, i, ts[i], e, ix.edgeTruss[e])
			}
		}
	}
}

func TestFindG0PaperFigure1(t *testing.T) {
	g := paperGraph()
	ix := Build(g)
	mu, k, err := findG0(t, ix, []int{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if k != 4 {
		t.Fatalf("k = %d, want 4", k)
	}
	if mu.N() != 11 || mu.Present(11) {
		t.Fatalf("G0: N=%d, t present=%v; want 11 nodes without t", mu.N(), mu.Present(11))
	}
	if err := truss.VerifyCommunity(mu, 4, []int{0, 1, 2}); err != nil {
		t.Fatal(err)
	}
}

func TestFindG0PaperFigure4(t *testing.T) {
	// Example 6: for Q = {q1, q2} the algorithm descends from level 4 to
	// level 2 and returns the whole graph (both 4-trusses plus the bridge).
	g := figure4Graph()
	ix := Build(g)
	if ix.EdgeTruss(6, 7) != 2 {
		t.Fatalf("τ(t1,t2) = %d, want 2", ix.EdgeTruss(6, 7))
	}
	mu, k, err := findG0(t, ix, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if k != 2 {
		t.Fatalf("k = %d, want 2", k)
	}
	if mu.N() != 8 || mu.M() != 13 {
		t.Fatalf("G0 = %d nodes %d edges, want the whole graph (8, 13)", mu.N(), mu.M())
	}
}

func TestFindG0SingleQuery(t *testing.T) {
	g := paperGraph()
	ix := Build(g)
	// Q = {q3}: q3 sits in 4-trusses; G0 must be a connected 4-truss.
	mu, k, err := findG0(t, ix, []int{2})
	if err != nil {
		t.Fatal(err)
	}
	if k != 4 {
		t.Fatalf("k = %d, want 4", k)
	}
	if err := truss.VerifyCommunity(mu, 4, []int{2}); err != nil {
		t.Fatal(err)
	}
}

func TestFindG0Errors(t *testing.T) {
	g := graph.FromEdges(5, [][2]int{{0, 1}, {2, 3}})
	ix := Build(g)
	if _, _, err := findG0(t, ix, []int{0, 2}); !errors.Is(err, ErrNoCommunity) {
		t.Fatalf("disconnected query: err = %v", err)
	}
	if _, _, err := findG0(t, ix, nil); err == nil {
		t.Fatal("empty query must fail")
	}
	if _, _, err := findG0(t, ix, []int{99}); err == nil {
		t.Fatal("out-of-range query must fail")
	}
	if _, _, err := findG0(t, ix, []int{4}); !errors.Is(err, ErrNoCommunity) {
		t.Fatalf("isolated query vertex: err = %v", err)
	}
}

func TestFindG0MatchesReference(t *testing.T) {
	// FindG0 must agree with the index-free binary search over
	// truss.ConnectedKTruss on both k and the vertex set.
	for seed := int64(0); seed < 15; seed++ {
		g := randomGraph(seed, 30, 0.25)
		d := truss.Decompose(g)
		ix := BuildFromDecomposition(g, d)
		rng := rand.New(rand.NewSource(seed + 1000))
		for trial := 0; trial < 8; trial++ {
			q := []int{rng.Intn(30), rng.Intn(30)}
			want, wantK, wantErr := truss.MaxConnectedKTruss(g, d, q)
			got, gotK, gotErr := findG0(t, ix, q)
			if (wantErr == nil) != (gotErr == nil) {
				t.Fatalf("seed %d q=%v: err mismatch: %v vs %v", seed, q, wantErr, gotErr)
			}
			if wantErr != nil {
				continue
			}
			if wantK != gotK {
				t.Fatalf("seed %d q=%v: k=%d, want %d", seed, q, gotK, wantK)
			}
			if got.N() != want.N() || got.M() != want.M() {
				t.Fatalf("seed %d q=%v: G0 %d/%d nodes %d/%d edges", seed, q,
					got.N(), want.N(), got.M(), want.M())
			}
			for _, v := range want.Vertices() {
				if !got.Present(v) {
					t.Fatalf("seed %d q=%v: vertex %d missing", seed, q, v)
				}
			}
		}
	}
}

func TestFindKTruss(t *testing.T) {
	g := paperGraph()
	ix := Build(g)
	// Fixed k=2 for Q={q1,q2,q3} spans the entire graph (t included).
	mu, err := findKTruss(t, ix, []int{0, 1, 2}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if mu.N() != 12 {
		t.Fatalf("2-truss N = %d, want 12", mu.N())
	}
	// Fixed k=4 matches FindG0's answer.
	mu4, err := findKTruss(t, ix, []int{0, 1, 2}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if mu4.N() != 11 {
		t.Fatalf("4-truss N = %d, want 11", mu4.N())
	}
	// k=5 exceeds every vertex trussness.
	if _, err := findKTruss(t, ix, []int{0, 1, 2}, 5); !errors.Is(err, ErrNoCommunity) {
		t.Fatalf("k=5: err = %v", err)
	}
	// Query split across 4-truss components at k=4.
	if _, err := findKTruss(t, ix, []int{0, 11}, 4); !errors.Is(err, ErrNoCommunity) {
		t.Fatalf("split query: err = %v", err)
	}
}

func TestSerializeRoundTrip(t *testing.T) {
	g := randomGraph(5, 40, 0.2)
	ix := Build(g)
	var buf bytes.Buffer
	n, err := ix.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteTo reported %d bytes, buffer has %d", n, buf.Len())
	}
	back, err := ReadFrom(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.MaxTruss() != ix.MaxTruss() {
		t.Fatalf("maxTruss = %d, want %d", back.MaxTruss(), ix.MaxTruss())
	}
	if back.Graph().N() != g.N() || back.Graph().M() != g.M() {
		t.Fatal("graph shape lost in round trip")
	}
	g.ForEachEdge(func(u, v int) {
		if back.EdgeTruss(u, v) != ix.EdgeTruss(u, v) {
			t.Fatalf("τ(%d,%d) = %d, want %d", u, v, back.EdgeTruss(u, v), ix.EdgeTruss(u, v))
		}
	})
	// The restored index must answer queries identically.
	q := []int{0, 1}
	m1, k1, e1 := findG0(t, ix, q)
	m2, k2, e2 := findG0(t, back, q)
	if (e1 == nil) != (e2 == nil) {
		t.Fatalf("FindG0 err mismatch: %v vs %v", e1, e2)
	}
	if e1 == nil && (k1 != k2 || m1.N() != m2.N() || m1.M() != m2.M()) {
		t.Fatal("FindG0 answers differ after round trip")
	}
}

func TestReadFromRejectsGarbage(t *testing.T) {
	if _, err := ReadFrom(bytes.NewReader([]byte("not an index"))); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := ReadFrom(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty input accepted")
	}
}

func TestApproxBytesPositive(t *testing.T) {
	ix := Build(paperGraph())
	if ix.ApproxBytes() <= ix.Graph().ApproxBytes()/2 {
		t.Fatalf("index bytes %d suspiciously small vs graph %d",
			ix.ApproxBytes(), ix.Graph().ApproxBytes())
	}
}
