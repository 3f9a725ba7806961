package core

import (
	"context"
	"errors"
	"sync"
	"testing"

	"repro/internal/gen"
	"repro/internal/trussindex"
)

// TestConcurrentSearchersSharedIndex locks in the pooled-workspace
// concurrency contract: one immutable Index serves many goroutines running
// LCTC/Basic/BulkDelete/TrussOnly queries at once, each checking out its
// own workspace. Run with -race (CI does) to catch any scratch sharing.
func TestConcurrentSearchersSharedIndex(t *testing.T) {
	g, truth := gen.CommunityGraph(gen.CommunityParams{
		N: 1200, NumCommunities: 80, MinSize: 5, MaxSize: 24,
		Overlap: 0.3, PIntra: 0.55, BackgroundEdges: 700,
		Hubs: 3, HubDegree: 40, PlantedClique: 12, Seed: 0xC0FFEE,
	})
	ix := trussindex.Build(g)
	s := NewSearcher(ix)

	// Build a pool of queries from the planted communities, plus a few
	// cross-community (likely low-k or failing) ones.
	var queries [][]int
	for i, c := range truth {
		if len(c) < 3 || i%3 != 0 {
			continue
		}
		queries = append(queries, []int{c[0], c[len(c)/2], c[len(c)-1]})
		if i%9 == 0 && len(truth) > i+1 && len(truth[i+1]) > 0 {
			queries = append(queries, []int{c[0], truth[i+1][0]})
		}
	}
	if len(queries) < 8 {
		t.Fatalf("only %d queries generated", len(queries))
	}

	// Sequential reference answers.
	type ref struct {
		n, m int
		k    int32
		err  bool
	}
	algos := []Algo{AlgoLCTC, AlgoBasic, AlgoBulkDelete, AlgoTrussOnly}
	want := make([][]ref, len(algos))
	for ai, algo := range algos {
		want[ai] = make([]ref, len(queries))
		for qi, q := range queries {
			c, err := search(s, Request{Q: q, Algo: algo, Verify: true})
			if err != nil {
				want[ai][qi] = ref{err: true}
				continue
			}
			want[ai][qi] = ref{n: c.N(), m: c.M(), k: c.K}
		}
	}

	// Concurrent run: every (algo, query) pair on its own goroutine, all
	// sharing ix and s. Results must match the sequential reference
	// exactly — the searches are deterministic.
	var wg sync.WaitGroup
	errs := make(chan error, len(algos)*len(queries))
	for ai := range algos {
		for qi := range queries {
			wg.Add(1)
			go func(ai, qi int) {
				defer wg.Done()
				c, err := search(s, Request{Q: queries[qi], Algo: algos[ai], Verify: true})
				w := want[ai][qi]
				if err != nil {
					if !w.err {
						errs <- err
					}
					return
				}
				if w.err {
					errs <- errors.New("concurrent run succeeded where sequential failed")
					return
				}
				if c.N() != w.n || c.M() != w.m || c.K != w.k {
					errs <- errors.New("concurrent result diverged from sequential reference")
				}
			}(ai, qi)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestWorkspaceReuseDeterministic checks that a workspace reused across
// many different queries never leaks state between them: interleaving
// queries must give the same answers as fresh runs.
func TestWorkspaceReuseDeterministic(t *testing.T) {
	g, truth := gen.CommunityGraph(gen.CommunityParams{
		N: 600, NumCommunities: 40, MinSize: 5, MaxSize: 20,
		Overlap: 0.25, PIntra: 0.6, BackgroundEdges: 300,
		Hubs: 2, HubDegree: 30, PlantedClique: 10, Seed: 0xBEEF,
	})
	ix := trussindex.Build(g)
	s := NewSearcher(ix)
	type ans struct {
		n int
		k int32
	}
	var first []ans
	for round := 0; round < 3; round++ {
		var got []ans
		for _, c := range truth {
			if len(c) < 2 {
				continue
			}
			q := []int{c[0], c[len(c)-1]}
			cm, err := search(s, Request{Q: q, Verify: true})
			if err != nil {
				got = append(got, ans{-1, -1})
				continue
			}
			got = append(got, ans{cm.N(), cm.K})
		}
		if round == 0 {
			first = got
			continue
		}
		for i := range got {
			if got[i] != first[i] {
				t.Fatalf("round %d query %d: got %+v, want %+v (workspace state leaked)", round, i, got[i], first[i])
			}
		}
	}
}

// TestDiameterConcurrentReaders calls Diameter on one Result from several
// goroutines, as concurrent hits on the serve layer's result cache may. Run
// with -race: a lazily memoised diameter is a data race.
func TestDiameterConcurrentReaders(t *testing.T) {
	res, err := paperSearcher().Search(context.Background(), Request{Q: []int{0, 1, 2}, Algo: AlgoBasic})
	if err != nil {
		t.Fatal(err)
	}
	diams := make([]int, 8)
	var wg sync.WaitGroup
	for i := range diams {
		wg.Add(1)
		go func() {
			defer wg.Done()
			diams[i] = res.Diameter()
		}()
	}
	wg.Wait()
	for i, d := range diams {
		if d != 3 {
			t.Fatalf("reader %d: diameter %d, want 3", i, d)
		}
	}
}
