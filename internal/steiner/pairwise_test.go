package steiner

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/trussindex"
)

// assertPairwiseMatchesExhaustive holds the query path's pairwise distances
// against the exhaustive per-terminal DistancesFrom it replaced: the same
// distance and the same realizing threshold for every terminal pair, or
// ErrDisconnected exactly when some pair is at infinite distance, and —
// feeding the exhaustive matrices through the rest of the build — the same
// tree or the same error.
func assertPairwiseMatchesExhaustive(t *testing.T, context string, ix *trussindex.Index, gamma float64, q []int) {
	t.Helper()
	m := NewMetric(ix, gamma)
	ws := ix.AcquireWorkspace()
	defer ws.Release()
	terms := dedupe(q)
	r := len(terms)
	dist, thr, err := m.pairDistances(terms, ws)
	if err != nil && !errors.Is(err, ErrDisconnected) {
		t.Fatalf("%s: pairDistances: %v", context, err)
	}
	wantDist := make([]float64, r*r)
	wantThr := make([]int32, r*r)
	for i, src := range terms {
		d, bt := m.DistancesFrom(src)
		for j, dst := range terms {
			if i == j {
				continue // a terminal's distance to itself realizes no threshold
			}
			wantDist[i*r+j], wantThr[i*r+j] = d[dst], bt[dst]
		}
	}
	if err != nil {
		if !slices.ContainsFunc(wantDist, func(d float64) bool { return math.IsInf(d, 1) }) {
			t.Fatalf("%s: terminals %v: pairDistances %v, exhaustive dist %v", context, terms, err, wantDist)
		}
	} else if !reflect.DeepEqual(dist, wantDist) || !reflect.DeepEqual(thr, wantThr) {
		t.Fatalf("%s: terminals %v\n pairwise   dist %v thr %v\n exhaustive dist %v thr %v",
			context, terms, dist, thr, wantDist, wantThr)
	}
	got, gotErr := BuildW(ix, q, gamma, ws)
	want, wantErr := m.treeFromPairs(terms, wantDist, wantThr, ws)
	if !errors.Is(gotErr, wantErr) || !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: terminals %v\n BuildW     %+v, %v\n exhaustive %+v, %v", context, terms, got, gotErr, want, wantErr)
	}
}

func TestPairDistancesMatchExhaustive(t *testing.T) {
	gammas := []float64{0, 1, 3}
	for _, tc := range gen.DifferentialCorpus() {
		n := tc.G.N()
		if n < 2 {
			continue
		}
		ix := trussindex.Build(tc.G)
		rng := gen.NewRNG(0x57E1)
		for size := 2; size <= 6 && size <= n; size++ {
			for draw := 0; draw < 4; draw++ {
				q := rng.Sample(n, size)
				for _, gamma := range gammas {
					assertPairwiseMatchesExhaustive(t, fmt.Sprintf("%s/|Q|=%d/γ=%g", tc.Name, size, gamma), ix, gamma, q)
				}
			}
		}
	}

	// Shapes the random draws may miss.
	twoTriangles := graph.FromEdges(6, [][2]int{{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5}})
	paper := trussindex.Build(paperGraph())
	for _, tc := range []struct {
		name    string
		ix      *trussindex.Index
		q       []int
		wantErr error
	}{
		{"disconnected pair", trussindex.Build(twoTriangles), []int{0, 2, 4}, ErrDisconnected},
		{"duplicate terminals", paper, []int{2, 0, 2, 1, 0, 0}, nil},
		// t (vertex 11) only has trussness-2 edges; q2, v4 and q3 meet at 4.
		{"terminal below the others' thresholds", paper, []int{1, 6, 2, 11}, nil},
	} {
		for _, gamma := range gammas {
			assertPairwiseMatchesExhaustive(t, fmt.Sprintf("%s/γ=%g", tc.name, gamma), tc.ix, gamma, tc.q)
			if _, err := Build(tc.ix, tc.q, gamma); !errors.Is(err, tc.wantErr) {
				t.Fatalf("%s/γ=%g: Build error = %v, want %v", tc.name, gamma, err, tc.wantErr)
			}
		}
	}
	t.Run("dblp", pairDistancesDBLP)
}

// pairDistancesDBLP holds pairDistances to the exhaustive scan at real size,
// on the dblp network: the 100 golden LCTC queries (2–4 vertices of one
// ground-truth community) and 50 queries of 2–6 vertices split between two
// communities, whose pairs meet at different bottleneck levels, each at
// γ = 0 and γ = 3.
func pairDistancesDBLP(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the dblp network")
	}
	nw, err := gen.NetworkByName("dblp")
	if err != nil {
		t.Fatal(err)
	}
	ix := trussindex.Build(nw.Graph())
	var qs [][]int
	for _, gq := range gen.QueriesFromGroundTruth(gen.NewRNG(1), nw.GroundTruth(), 100, 2, 4) {
		qs = append(qs, gq.Q)
	}
	comms := nw.GroundTruth()
	rng := gen.NewRNG(0x2C0)
	for len(qs) < 150 {
		a, b := comms[rng.Intn(len(comms))], comms[rng.Intn(len(comms))]
		size := 2 + rng.Intn(5)
		q := sampleFrom(rng, a, (size+1)/2)
		q = append(q, sampleFrom(rng, b, size/2)...)
		if slices.Equal(a, b) || len(dedupe(q)) != size {
			continue
		}
		qs = append(qs, q)
	}
	split := 0 // queries whose pairs meet at more than one bottleneck level
	for i, q := range qs {
		for _, gamma := range []float64{0, 3} {
			assertPairwiseMatchesExhaustive(t, fmt.Sprintf("dblp/q%d/γ=%g", i, gamma), ix, gamma, q)
		}
		levels := map[int32]bool{}
		for _, u := range q {
			for _, v := range q {
				if u != v {
					levels[ix.ConnectLevel(u, v)] = true
				}
			}
		}
		if len(levels) > 1 {
			split++
		}
	}
	if split == 0 {
		t.Fatal("no query has pairs at distinct bottleneck levels")
	}
	t.Logf("%d of %d queries have pairs at distinct bottleneck levels", split, len(qs))
}

// sampleFrom returns min(size, len(c)) distinct members of c.
func sampleFrom(rng *gen.RNG, c []int, size int) []int {
	size = min(size, len(c))
	out := make([]int, size)
	for i, j := range rng.Sample(len(c), size) {
		out[i] = c[j]
	}
	return out
}

// TestPairDistancesPollsCancel pins the checkpoint inside the pairwise scan:
// a cancelled query context stops it at the first threshold, and the
// abandoned workspace still answers the next query exactly.
func TestPairDistancesPollsCancel(t *testing.T) {
	ix := trussindex.Build(paperGraph())
	ws := ix.AcquireWorkspace()
	defer ws.Release()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ws.SetContext(ctx)
	if _, err := BuildW(ix, []int{0, 1, 2}, 3, ws); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled build: err = %v, want context.Canceled", err)
	}
	ws.SetContext(context.Background())
	assertPairwiseMatchesExhaustive(t, "after a cancelled build", ix, 3, []int{0, 1, 2})
}
