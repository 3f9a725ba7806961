package steiner

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/trussindex"
)

// assertPairwiseMatchesExhaustive holds the query path's pairwise distances
// against the exhaustive per-terminal DistancesFrom it replaced: the same
// distance and the same realizing threshold for every terminal pair, and —
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
	if err != nil {
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
	if !reflect.DeepEqual(dist, wantDist) || !reflect.DeepEqual(thr, wantThr) {
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
