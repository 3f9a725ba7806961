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
// with distinct LCTC answers on dblp and bounds what each retained answer
// costs. A Result holds its community as a vertex list plus one bit per
// forward arc of a listed vertex in the snapshot's graph, ~2 KB an entry on
// dblp. One bit per edge of the whole snapshot's graph cost ~13 KB an
// entry; an overlay of that graph, with its per-vertex arrays, ~64 KB; one
// of the query's own frozen expansion pinned a private copy of the graph
// (~225 KB an entry, a 565 MB server).
func TestCachedLCTCResultsAreSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("answers 1024 dblp queries")
	}
	nw, err := gen.NetworkByName("dblp")
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
		for _, gq := range gen.QueriesFromGroundTruth(rng, nw.GroundTruth(), entries, 2, 4) {
			q := slices.Clone(gq.Q)
			slices.Sort(q)
			if key := fmt.Sprint(q); !seen[key] && len(qs) < entries+1 {
				seen[key] = true
				qs = append(qs, gq.Q)
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
	t.Logf("heap in use per cached LCTC answer: %d KB", perEntry>>10)
	if perEntry > 4<<10 {
		t.Fatalf("heap in use per cached LCTC answer = %d KB, want <= 4 KB", perEntry>>10)
	}
}
