package serve

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
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
// network with distinct queries drawn from draw, two goroutines at a time,
// and fails if the heap in use per cached answer exceeds bound bytes.
func cachedAnswerBytes(t *testing.T, name string, bound int64, draw func(*gen.Network, *gen.RNG) [][]int) {
	nw, err := gen.NetworkByName(name)
	if err != nil {
		t.Fatal(err)
	}
	ix := trussindex.Build(nw.Graph())
	m := NewManagerFromIndex(ix, Options{})
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
	query := func(q []int) {
		if _, err := m.Query(ctx, core.Request{Q: q}); err != nil {
			t.Errorf("query %v: %v", q, err)
		}
	}
	// The first two queries warm one pooled workspace each, the first held
	// out of the pool while the second runs, so that neither fill goroutine
	// allocates a workspace's n-sized arrays after the first reading. Both
	// stay cached, so the measured fill is the remaining 1023 entries plus
	// the eviction of the oldest.
	query(qs[0])
	held := ix.AcquireWorkspace()
	query(qs[1])
	held.Release()
	before := liveHeap()
	var wg sync.WaitGroup
	for w := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 2 + w; i < len(qs); i += 2 {
				query(qs[i])
			}
		}()
	}
	wg.Wait()
	after := liveHeap()
	if t.Failed() {
		return
	}
	if got := m.Stats().CacheEntries; got != entries {
		t.Fatalf("cache holds %d entries, want %d", got, entries)
	}
	perEntry := (int64(after) - int64(before)) / entries
	t.Logf("heap in use per cached LCTC answer on %s: %d B", name, perEntry)
	if perEntry > bound {
		t.Fatalf("heap in use per cached LCTC answer on %s = %d B, want <= %d B", name, perEntry, bound)
	}
}
