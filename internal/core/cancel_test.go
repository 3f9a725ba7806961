package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/trussindex"
)

// starCliqueChain builds the pathological cancellation graph: a chain of
// `count` K_size cliques, consecutive cliques sharing one vertex, with a
// `leaves`-edge star glued to the chain's first vertex. The chain makes the
// peel long (thousands of rounds for Basic, one furthest vertex at a time,
// each round a BFS per query vertex) and the star makes the k=2 starting
// graph wide, so every pipeline phase has real work to cancel out of.
func starCliqueChain(count, size, leaves int) *graph.Graph {
	var edges [][2]int
	n := 0
	base := 0
	for c := 0; c < count; c++ {
		for i := 0; i < size; i++ {
			for j := i + 1; j < size; j++ {
				edges = append(edges, [2]int{base + i, base + j})
			}
		}
		base += size - 1 // share the last vertex with the next clique
	}
	n = base + 1
	for l := 0; l < leaves; l++ {
		edges = append(edges, [2]int{0, n + l})
	}
	return graph.FromEdges(n+leaves, edges)
}

// chainEndpoints returns query vertices at the two far ends of the chain.
func chainEndpoints(count, size int) []int {
	return []int{1, (size-1)*count - 1}
}

// countingCtx is a context.Context whose Err flips to context.Canceled
// after the budget-th poll: a deterministic probe that lets tests cancel a
// query at exactly the N-th cancellation checkpoint, whichever pipeline
// phase that checkpoint lives in.
type countingCtx struct {
	budget int
	polls  int
	done   chan struct{}
}

func newCountingCtx(budget int) *countingCtx {
	return &countingCtx{budget: budget, done: make(chan struct{})}
}

func (c *countingCtx) Deadline() (time.Time, bool) { return time.Time{}, false }
func (c *countingCtx) Done() <-chan struct{}       { return c.done }
func (c *countingCtx) Value(any) any               { return nil }
func (c *countingCtx) Err() error {
	c.polls++
	if c.polls > c.budget {
		return context.Canceled
	}
	return nil
}

// TestCancelAtEveryCheckpoint drives each algorithm with a context that
// cancels at the N-th checkpoint for every N up to well past the query's
// total checkpoint count. Every cancelled run must surface
// context.Canceled; every run whose budget outlived the checkpoints must
// return the exact reference answer — and after the whole sweep (dozens of
// queries abandoned at arbitrary phases on the same pooled workspaces) a
// clean run must still match, proving abandonment leaks no workspace state
// and loses no pooled workspace.
func TestCancelAtEveryCheckpoint(t *testing.T) {
	s := NewSearcher(trussindex.Build(starCliqueChain(30, 6, 50)))
	q := chainEndpoints(30, 6)
	// 2251 chain vertices: an expansion across all of them is past the size
	// up to which the per-query graph carries bit rows, so this one runs the
	// merge kernels where the 151-vertex chain above runs the row kernels.
	long := NewSearcher(trussindex.Build(starCliqueChain(450, 6, 50)))
	longQ := chainEndpoints(450, 6)

	for _, tc := range []struct {
		name string
		s    *Searcher
		req  Request
	}{
		// K=2 pulls the star into the starting graph (everything is a
		// 2-truss), maximizing peel work for the two global algorithms.
		{"Basic", s, Request{Q: q, Algo: AlgoBasic, K: 2}},
		{"BulkDelete", s, Request{Q: q, Algo: AlgoBulkDelete, K: 2}},
		{"TrussOnly", s, Request{Q: q, Algo: AlgoTrussOnly}},
		// A huge Eta sends LCTC's expansion across the whole chain.
		{"LCTC", s, Request{Q: q, Eta: 1 << 20}},
		{"LCTC/long", long, Request{Q: longQ, Eta: 1 << 20}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := tc.s
			ref, err := s.Search(context.Background(), tc.req)
			if err != nil {
				t.Fatalf("reference: %v", err)
			}
			if tc.s == long && ref.Stats.SeedEdges < 450*15 {
				t.Fatalf("expansion kept %d edges, want the whole %d-edge chain", ref.Stats.SeedEdges, 450*15)
			}
			sawCancel := 0
			completedAt := -1
			for n := 0; n < 5000; n++ {
				cc := newCountingCtx(n)
				res, err := s.Search(cc, tc.req)
				if err != nil {
					if !errors.Is(err, context.Canceled) {
						t.Fatalf("budget %d: err = %v, want context.Canceled", n, err)
					}
					if res != nil {
						t.Fatalf("budget %d: result alongside cancellation", n)
					}
					sawCancel++
					continue
				}
				if res.N() != ref.N() || res.M() != ref.M() || res.K != ref.K {
					t.Fatalf("budget %d: (n=%d m=%d k=%d) diverged from reference (n=%d m=%d k=%d)",
						n, res.N(), res.M(), res.K, ref.N(), ref.M(), ref.K)
				}
				completedAt = n
				break // budget outlived every checkpoint; larger budgets are identical
			}
			if sawCancel == 0 {
				t.Fatalf("no budget produced a cancellation — checkpoints not wired in?")
			}
			if completedAt < 0 {
				t.Fatalf("query still cancelled at budget 5000 — checkpoint density looks runaway")
			}
			t.Logf("%s: %d checkpoints before completion", tc.name, completedAt)

			// Pool sanity: a clean rerun after all the abandoned queries.
			res, err := s.Search(context.Background(), tc.req)
			if err != nil || res.N() != ref.N() || res.M() != ref.M() || res.K != ref.K {
				t.Fatalf("post-sweep rerun diverged: %v (n=%d m=%d k=%d)", err, res.N(), res.M(), res.K)
			}
		})
	}
}

// TestCancelMidQueryPrompt cancels in-flight searches with real contexts
// under wall-clock pressure (run under -race in CI): a goroutine-cancelled
// context mid-peel and a deadline context mid-pipeline must both return
// their context error well before the query's natural completion time.
func TestCancelMidQueryPrompt(t *testing.T) {
	g := starCliqueChain(300, 8, 2000)
	ix := trussindex.Build(g)
	s := NewSearcher(ix)
	q := chainEndpoints(300, 8)
	req := Request{Q: q, Algo: AlgoBasic, K: 2} // slowest variant: one vertex per round

	t0 := time.Now()
	ref, err := s.Search(context.Background(), req)
	full := time.Since(t0)
	if err != nil {
		t.Fatal(err)
	}
	if full < 20*time.Millisecond {
		t.Skipf("full query only took %v; too fast to observe cancellation", full)
	}

	// Deadline mid-pipeline → context.DeadlineExceeded.
	dctx, cancel := context.WithTimeout(context.Background(), full/10)
	defer cancel()
	t0 = time.Now()
	_, err = s.Search(dctx, req)
	elapsed := time.Since(t0)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadline run: err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed > full {
		t.Fatalf("deadline run took %v, longer than the uncancelled query (%v)", elapsed, full)
	}

	// Concurrent cancel mid-peel → context.Canceled, promptly.
	cctx, cancel2 := context.WithCancel(context.Background())
	timer := time.AfterFunc(full/10, cancel2)
	defer timer.Stop()
	defer cancel2()
	t0 = time.Now()
	_, err = s.Search(cctx, req)
	elapsed = time.Since(t0)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run: err = %v, want context.Canceled", err)
	}
	if elapsed > full {
		t.Fatalf("cancelled run took %v, longer than the uncancelled query (%v)", elapsed, full)
	}

	// The index still answers correctly after both abandonments.
	res, err := s.Search(context.Background(), req)
	if err != nil || res.N() != ref.N() || res.K != ref.K {
		t.Fatalf("post-cancel rerun diverged: %v", err)
	}
}

// TestCancelMidExpand pins the LCTC expansion checkpoint specifically: a
// budget that survives the Steiner seed but dies inside expand must come
// back as context.Canceled, not as a mangled community.
func TestCancelMidExpand(t *testing.T) {
	g := starCliqueChain(40, 6, 10)
	ix := trussindex.Build(g)
	s := NewSearcher(ix)
	q := chainEndpoints(40, 6)
	req := Request{Q: q, Eta: 1 << 20}

	// Find the checkpoint range of each phase by probing: the first budget
	// that completes tells us the total; anything below must cancel.
	refRes, err := s.Search(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	total := -1
	for n := 0; n < 5000; n++ {
		if _, err := s.Search(newCountingCtx(n), req); err == nil {
			total = n
			break
		}
	}
	if total < 3 {
		t.Fatalf("LCTC pipeline exposes only %d checkpoints; expected seed+expand+extract+peel", total)
	}
	// Mid-pipeline budgets (past the first Steiner checks, before the last
	// peel round) must all cancel cleanly.
	for _, n := range []int{total / 4, total / 2, 3 * total / 4} {
		if _, err := s.Search(newCountingCtx(n), req); !errors.Is(err, context.Canceled) {
			t.Fatalf("budget %d/%d: err = %v, want context.Canceled", n, total, err)
		}
	}
	res, err := s.Search(context.Background(), req)
	if err != nil || res.N() != refRes.N() || res.K != refRes.K {
		t.Fatalf("post-cancel rerun diverged: %v", err)
	}
}
