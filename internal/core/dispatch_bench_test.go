package core

import (
	"context"
	"testing"
)

// BenchmarkSearchDispatch measures the unified entry point against the
// legacy per-algorithm wrappers on the shared 59k-edge workload, proving
// the Search(ctx, Request) dispatch layer adds zero allocations and no
// measurable time over the pre-redesign direct calls (the wrappers decode
// Options and route through the identical pipeline, so Wrapper/* here is
// the old entry-point cost shape; compare against BENCH_pr2.json's
// BenchmarkLCTC/BenchmarkBasic for the pre-redesign absolute numbers).
func BenchmarkSearchDispatch(b *testing.B) {
	s, q := searchBenchSetup(b)
	ctx := context.Background()
	run := func(name string, fn func() (int, error)) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n, err := fn()
				if err != nil {
					b.Fatal(err)
				}
				if n == 0 {
					b.Fatal("empty community")
				}
			}
		})
	}
	run("Search/LCTC", func() (int, error) {
		res, err := s.Search(ctx, Request{Q: q})
		if err != nil {
			return 0, err
		}
		return res.N(), nil
	})
	run("Wrapper/LCTC", func() (int, error) {
		c, err := s.LCTC(q, nil)
		if err != nil {
			return 0, err
		}
		return c.N(), nil
	})
	run("Search/Basic", func() (int, error) {
		res, err := s.Search(ctx, Request{Q: q, Algo: AlgoBasic})
		if err != nil {
			return 0, err
		}
		return res.N(), nil
	})
	run("Wrapper/Basic", func() (int, error) {
		c, err := s.Basic(q, nil)
		if err != nil {
			return 0, err
		}
		return c.N(), nil
	})
	run("Search/TrussOnly", func() (int, error) {
		res, err := s.Search(ctx, Request{Q: q, Algo: AlgoTrussOnly})
		if err != nil {
			return 0, err
		}
		return res.N(), nil
	})
}

// TestSearchDispatchZeroAllocOverhead pins the acceptance criterion
// numerically: the unified entry point allocates exactly as much as the
// legacy wrapper path for the same algorithm (the wrapper IS a Search call
// plus Options decoding, so equality means the dispatch layer itself —
// validation, stats, Result packing — contributes zero allocations; the
// Result's stats ride inside the single allocation that used to hold the
// bare Community).
func TestSearchDispatchZeroAllocOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement on the large shared workload")
	}
	g := requestTestSearcher(t) // warm small index for a pure dispatch probe
	ctx := context.Background()
	q := []int{0, 1}
	for _, tc := range []struct {
		name string
		req  Request
		leg  func() error
	}{
		{"TrussOnly", Request{Q: q, Algo: AlgoTrussOnly}, func() error { _, err := g.TrussOnly(q, nil); return err }},
		{"LCTC", Request{Q: q}, func() error { _, err := g.LCTC(q, nil); return err }},
	} {
		// Warm the workspace pool so neither path pays first-use costs.
		if _, err := g.Search(ctx, tc.req); err != nil {
			t.Fatal(err)
		}
		searchAllocs := testing.AllocsPerRun(200, func() {
			if _, err := g.Search(ctx, tc.req); err != nil {
				t.Fatal(err)
			}
		})
		legacyAllocs := testing.AllocsPerRun(200, func() {
			if err := tc.leg(); err != nil {
				t.Fatal(err)
			}
		})
		// Exact without the race detector; under it a dropped workspace Put
		// lands in whichever measurement happens to be running.
		if searchAllocs > legacyAllocs && !raceEnabled {
			t.Errorf("%s: Search allocates %.1f/op vs %.1f/op for the legacy wrapper — dispatch added allocations",
				tc.name, searchAllocs, legacyAllocs)
		}
		t.Logf("%s: Search %.1f allocs/op, legacy wrapper %.1f allocs/op", tc.name, searchAllocs, legacyAllocs)
	}
}
