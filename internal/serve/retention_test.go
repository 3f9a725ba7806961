package serve

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/trussindex"
)

// liveHeap returns the heap in use after the garbage has been collected
// (twice: the first collection only empties the workspace pools' victim
// caches into garbage).
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapInuse
}

// TestCachedLCTCResultsAreSmall fills the default 1024-entry result cache
// with distinct LCTC answers and bounds what each retained answer costs: on
// dblp's ground-truth queries of 2-4 vertices, and on facebook's random
// pairs, whose answers span hundreds of vertices. A Result holds its
// community as its gap-coded vertex list, about a byte a vertex: ~1 KB an
// entry on dblp, ~1.4 KB on facebook. Edge bits beside a []int list cost
// 2.3 and 8.8 KB; an answer that pins an overlay of the snapshot's graph, or
// the query's own expansion, tens to hundreds of KB.
func TestCachedLCTCResultsAreSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("answers 1024 dblp and 1024 facebook queries")
	}
	t.Run("dblp", func(t *testing.T) {
		cachedAnswerBytes(t, "dblp", 2<<10, func(nw *gen.Network, rng *gen.RNG) [][]int {
			var qs [][]int
			for _, gq := range gen.QueriesFromGroundTruth(rng, nw.GroundTruth(), 1024, 2, 4) {
				qs = append(qs, gq.Q)
			}
			return qs
		})
	})
	t.Run("facebook", func(t *testing.T) {
		cachedAnswerBytes(t, "facebook", 4<<10, func(nw *gen.Network, rng *gen.RNG) [][]int {
			qs := make([][]int, 1024)
			for i := range qs {
				qs[i] = gen.RandomQuery(nw.Graph(), rng, 2)
			}
			return qs
		})
	})
}

// cachedAnswerBytes fills a fresh manager's result cache on the named
// network with distinct queries drawn from draw, and fails if the heap in
// use per cached answer exceeds bound bytes.
func cachedAnswerBytes(t *testing.T, name string, bound int64, draw func(*gen.Network, *gen.RNG) [][]int) {
	nw, err := gen.NetworkByName(name)
	if err != nil {
		t.Fatal(err)
	}
	m := NewManagerFromIndex(trussindex.Build(nw.Graph()), Options{})
	defer m.Close()
	ctx := context.Background()

	const entries = 1024
	rng := gen.NewRNG(7)
	seen := map[string]bool{}
	var qs [][]int
	for len(qs) < entries+1 {
		for _, q := range draw(nw, rng) {
			sorted := slices.Clone(q)
			slices.Sort(sorted)
			if key := fmt.Sprint(sorted); !seen[key] && len(qs) < entries+1 {
				seen[key] = true
				qs = append(qs, q)
			}
		}
	}
	// The first query warms the workspace pool; it stays cached, so the
	// measured fill is the remaining 1023 entries plus its eviction.
	if _, err := m.Query(ctx, core.Request{Q: qs[0]}); err != nil {
		t.Fatal(err)
	}
	before := liveHeap()
	for _, q := range qs[1:] {
		if _, err := m.Query(ctx, core.Request{Q: q}); err != nil {
			t.Fatalf("query %v: %v", q, err)
		}
	}
	after := liveHeap()
	if got := m.Stats().CacheEntries; got != entries {
		t.Fatalf("cache holds %d entries, want %d", got, entries)
	}
	perEntry := (int64(after) - int64(before)) / entries
	t.Logf("heap in use per cached LCTC answer on %s: %d B", name, perEntry)
	if perEntry > bound {
		t.Fatalf("heap in use per cached LCTC answer on %s = %d B, want <= %d B", name, perEntry, bound)
	}
}
