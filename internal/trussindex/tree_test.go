package trussindex

import (
	"bytes"
	"testing"

	"repro/internal/gen"
)

// thresholdScanLevels returns, for every vertex pair u <= v of ix's graph
// (row-major, n×n, upper triangle), the largest threshold t at which
// FindKTrussW({u, v}, t) succeeds, or 0 if it succeeds at none.
func thresholdScanLevels(t *testing.T, ix *Index) []int32 {
	t.Helper()
	n := ix.Graph().N()
	ws := ix.AcquireWorkspace()
	defer ws.Release()
	want := make([]int32, n*n)
	for u := 0; u < n; u++ {
		for v := u; v < n; v++ {
			for _, th := range ix.ThresholdsShared() {
				if _, _, err := ix.FindKTrussW([]int{u, v}, th, ws); err == nil {
					want[u*n+v] = th
					break
				}
			}
		}
	}
	return want
}

// componentScanLevels is thresholdScanLevels for larger graphs: per
// threshold, one FindKTrussW call from each component labels its vertices,
// and a pair's level is the largest threshold at which FindKTrussW's
// component of u holds v — exactly when FindKTrussW({u, v}, t) succeeds.
func componentScanLevels(t *testing.T, ix *Index) []int32 {
	t.Helper()
	n := ix.Graph().N()
	ws := ix.AcquireWorkspace()
	defer ws.Release()
	want := make([]int32, n*n)
	label := make([]int, n)
	for _, th := range ix.ThresholdsShared() {
		for v := range label {
			label[v] = -1
		}
		for u := 0; u < n; u++ {
			if label[u] >= 0 {
				continue
			}
			x, _, err := ix.FindKTrussW([]int{u}, th, ws)
			if err != nil {
				continue
			}
			for _, v := range x.Vert {
				label[v] = u
			}
		}
		for u := 0; u < n; u++ {
			for v := u; v < n; v++ {
				if label[u] >= 0 && label[u] == label[v] && want[u*n+v] == 0 {
					want[u*n+v] = th
				}
			}
		}
	}
	return want
}

// assertConnectLevels checks ConnectLevel on every vertex pair of ix, in
// both argument orders, against want.
func assertConnectLevels(t *testing.T, name string, ix *Index, want []int32) {
	t.Helper()
	n := ix.Graph().N()
	for u := 0; u < n; u++ {
		for v := u; v < n; v++ {
			if got, got2 := ix.ConnectLevel(u, v), ix.ConnectLevel(v, u); got != want[u*n+v] || got2 != got {
				t.Fatalf("%s: ConnectLevel(%d, %d) = %d, ConnectLevel(%d, %d) = %d; threshold scan %d",
					name, u, v, got, v, u, got2, want[u*n+v])
			}
		}
	}
}

// TestConnectLevelMatchesThresholdScan holds the truss-level tree to the
// definition on every vertex pair of every corpus graph — also after a
// serialization round trip, which rebuilds the tree on load — and to its
// size bound of 2n-1 nodes.
func TestConnectLevelMatchesThresholdScan(t *testing.T) {
	for _, tc := range gen.DifferentialCorpus() {
		ix := Build(tc.G)
		want := componentScanLevels(t, ix)
		assertConnectLevels(t, tc.Name, ix, want)
		if n := tc.G.N(); len(ix.tree) > max(2*n-1, 0) {
			t.Fatalf("%s: %d tree nodes for %d vertices", tc.Name, len(ix.tree), n)
		}
		var buf bytes.Buffer
		if _, err := ix.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := ReadFrom(&buf)
		if err != nil {
			t.Fatal(err)
		}
		assertConnectLevels(t, tc.Name+"/round-trip", back, want)
	}
}

// FuzzConnectLevel checks ConnectLevel against the pairwise threshold scan
// on Erdős–Rényi graphs of up to 40 vertices.
func FuzzConnectLevel(f *testing.F) {
	f.Add(uint64(1), uint8(12), uint8(80))
	f.Add(uint64(2), uint8(30), uint8(40))
	f.Add(uint64(3), uint8(40), uint8(20))
	f.Add(uint64(4), uint8(25), uint8(160))
	f.Add(uint64(5), uint8(1), uint8(255))
	f.Fuzz(func(t *testing.T, seed uint64, n, p uint8) {
		ix := Build(gen.ErdosRenyi(1+int(n)%40, float64(p)/255, seed))
		assertConnectLevels(t, "fuzz", ix, thresholdScanLevels(t, ix))
	})
}
