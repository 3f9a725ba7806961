package core

import (
	"context"
	"testing"
)

// BenchmarkSearchDispatch measures Search per algorithm on the shared
// 59k-edge workload; TestSearchDispatchZeroAllocOverhead holds its allocation
// counts.
func BenchmarkSearchDispatch(b *testing.B) {
	s, q := searchBenchSetup(b)
	ctx := context.Background()
	for _, algo := range []Algo{AlgoLCTC, AlgoBasic, AlgoTrussOnly} {
		b.Run("Search/"+algo.String(), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := s.Search(ctx, Request{Q: q, Algo: algo})
				if err != nil {
					b.Fatal(err)
				}
				if res.N() == 0 {
					b.Fatal("empty community")
				}
			}
		})
	}
}

// TestSearchDispatchZeroAllocOverhead holds one search on
// searchBenchSetup's workload to an absolute allocation budget. Everything
// a search builds after its seed — LCTC's expansion, the other algorithms'
// G0 — lives in the pooled Expansion and the peel works in place, so what is
// left is LCTC's Steiner tree and the returned community. The budgets are
// the measured counts. testing.AllocsPerRun measures at GOMAXPROCS 1, which
// keeps the per-P Expansion pool warm from one iteration to the next.
func TestSearchDispatchZeroAllocOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the 59k-edge workload")
	}
	if raceEnabled {
		t.Skip("the race detector allocates and drops pooled items")
	}
	s, q := searchBenchSetup(t)
	ctx := context.Background()
	for _, tc := range []struct {
		algo   Algo
		runs   int
		budget float64
	}{
		{AlgoLCTC, 50, 18},
		{AlgoBasic, 10, 4},
		{AlgoTrussOnly, 50, 4},
	} {
		allocs := testing.AllocsPerRun(tc.runs, func() {
			if _, err := s.Search(ctx, Request{Q: q, Algo: tc.algo}); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > tc.budget {
			t.Errorf("%s: %.0f allocs per search, budget %.0f", tc.algo, allocs, tc.budget)
		}
		t.Logf("%s: %.0f allocs per search (budget %.0f)", tc.algo, allocs, tc.budget)
	}
}
