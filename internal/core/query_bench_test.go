package core

import (
	"context"
	"testing"
	"time"
)

// searchBenchSetup reuses the peel benchmark's graph/index/query (the shared
// 59k-edge generated workload) but returns a Searcher for the end-to-end
// query benchmarks.
var searchBenchS *Searcher

func searchBenchSetup(tb testing.TB) (*Searcher, []int) {
	tb.Helper()
	ix, q := peelBenchSetup(tb)
	if searchBenchS == nil {
		searchBenchS = NewSearcher(ix)
	}
	return searchBenchS, q
}

func BenchmarkLCTC(b *testing.B) { benchmarkSearch(b, AlgoLCTC) }

func BenchmarkBasic(b *testing.B) { benchmarkSearch(b, AlgoBasic) }

func benchmarkSearch(b *testing.B, algo Algo) {
	s, q := searchBenchSetup(b)
	ctx := context.Background()
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
}

// BenchmarkSearchThroughputParallel drives many simultaneous LCTC queries
// against one shared Index — the concurrent-serving scenario. Run with -race
// to exercise the pooled-workspace concurrency contract.
func BenchmarkSearchThroughputParallel(b *testing.B) {
	s, q := searchBenchSetup(b)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			res, err := s.Search(ctx, Request{Q: q})
			// b.Fatal must not run on a RunParallel worker goroutine;
			// b.Error marks the failure and we bail out of this worker.
			if err != nil {
				b.Error(err)
				return
			}
			if res.N() == 0 {
				b.Error("empty community")
				return
			}
		}
	})
}

// BenchmarkLCTCPhases answers the golden query sets (TestLCTCGolden's) once
// per iteration and reports where a search spends its time — the in-process
// number to iterate on between full bench/run.sh runs. ns/op, B/op and
// allocs/op are per search, like the *_ms metrics.
func BenchmarkLCTCPhases(b *testing.B) {
	for _, name := range []string{"facebook", "dblp"} {
		b.Run(name, func(b *testing.B) {
			_, s, qs := goldenQueries(b, name)
			ctx := context.Background()
			var seed, expand, peel time.Duration
			var rounds, peeled int
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := s.Search(ctx, Request{Q: qs[i%len(qs)]})
				if err != nil {
					b.Fatal(err)
				}
				seed += res.Stats.Seed
				expand += res.Stats.Expand
				peel += res.Stats.Peel
				rounds += res.Stats.PeelRounds
				peeled += res.Stats.EdgesPeeled
			}
			perSearch := func(d time.Duration) float64 { return d.Seconds() * 1e3 / float64(b.N) }
			b.ReportMetric(perSearch(seed), "seed_ms")
			b.ReportMetric(perSearch(expand), "expand_ms")
			b.ReportMetric(perSearch(peel), "peel_ms")
			b.ReportMetric(float64(rounds)/float64(b.N), "peel_rounds")
			b.ReportMetric(float64(peeled)/float64(b.N), "edges_peeled")
		})
	}
}
