package shard

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/serve"
)

// Differential harness (acceptance criterion): the scatter-gather router
// must produce the same answers as one single-shard serve.Manager fed the
// identical update stream — same algorithm labels, same trussness, same
// community vertex sets — for every algorithm, across N ∈ {1,2,4}, at
// quiesced checkpoints of a seeded 1k-op mixed stream, while background
// queries keep publishes and snapshot handoffs in flight on both sides
// (run under -race in CI).

// diffAlgos is the full request matrix: all four algorithms, LCTC under
// both seed metrics.
func diffAlgos() []core.Request {
	return []core.Request{
		{Algo: core.AlgoLCTC},
		{Algo: core.AlgoLCTC, DistanceMode: core.DistHop},
		{Algo: core.AlgoBasic},
		{Algo: core.AlgoBulkDelete},
		{Algo: core.AlgoTrussOnly},
	}
}

type diffOp struct {
	op   serve.Op
	u, v int
}

// diffStream derives a deterministic 1k-op mixed stream from the base
// graph: removes drawn from the original edge set, adds drawn from random
// pairs (re-adds of removed edges included by construction), and a few
// foreign vertices beyond the base vertex space to force rebases.
func diffStream(g *graph.Graph, seed uint64, nOps int) []diffOp {
	rng := gen.NewRNG(seed)
	ops := make([]diffOp, 0, nOps)
	for i := 0; i < nOps; i++ {
		switch rng.Intn(10) {
		case 0, 1, 2, 3: // remove an original edge (may already be gone)
			u, v := g.EdgeEndpoints(int32(rng.Intn(g.M())))
			ops = append(ops, diffOp{serve.OpRemove, u, v})
		case 4: // foreign add: grows the vertex space on both sides
			ops = append(ops, diffOp{serve.OpAdd, rng.Intn(g.N()), g.N() + rng.Intn(16)})
		default: // random add (sometimes a re-add, sometimes brand new)
			u, v := rng.Intn(g.N()), rng.Intn(g.N())
			if u == v {
				v = (v + 1) % g.N()
			}
			ops = append(ops, diffOp{serve.OpAdd, u, v})
		}
	}
	return ops
}

func diffServeOpts() serve.Options {
	return serve.Options{
		PublishDirty:    8,
		PublishInterval: 5 * time.Millisecond,
	}
}

func runDifferential(t *testing.T, shards int, communityAware bool, seed uint64) {
	g, comms := testGraph()
	oracle := serve.NewManager(g, diffServeOpts())
	defer oracle.Close()
	cfg := Config{Shards: shards, Seed: seed, Serve: diffServeOpts()}
	if communityAware {
		cfg.Communities = comms
	}
	router, err := New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()

	nOps := 1000
	checkEvery := 250
	queries := 3
	if testing.Short() {
		nOps, checkEvery, queries = 300, 150, 2
	}
	ops := diffStream(g, seed, nOps)
	rng := gen.NewRNG(seed ^ 0xD1FF)
	ctx := context.Background()

	for start := 0; start < len(ops); start += checkEvery {
		end := start + checkEvery
		if end > len(ops) {
			end = len(ops)
		}
		// Publishes in flight: queries race the appliers on both planes
		// while this chunk streams in.
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				qrng := gen.NewRNG(seed + uint64(start) + uint64(w))
				for {
					select {
					case <-stop:
						return
					default:
					}
					q := gen.RandomQuery(g, qrng, 2)
					_, _ = router.Query(ctx, core.Request{Q: q})
					_, _ = oracle.Query(ctx, core.Request{Q: q})
				}
			}(w)
		}
		for _, op := range ops[start:end] {
			up := serve.Update{Op: op.op, U: op.u, V: op.v}
			if err := oracle.Apply(up); err != nil {
				t.Fatalf("oracle apply: %v", err)
			}
			if err := router.Apply(up); err != nil {
				t.Fatalf("router apply: %v", err)
			}
		}
		close(stop)
		wg.Wait()
		if err := oracle.Flush(); err != nil {
			t.Fatalf("oracle flush: %v", err)
		}
		if err := router.Flush(); err != nil {
			t.Fatalf("router flush: %v", err)
		}
		compareAt(t, ctx, oracle, router, shards, rng, queries, end)
		if t.Failed() {
			return
		}
	}
}

func compareAt(t *testing.T, ctx context.Context, oracle *serve.Manager, router *Router, shards int, rng *gen.RNG, queries, opCount int) {
	t.Helper()
	osnap := oracle.Acquire()
	n := osnap.Graph().N()
	osnap.Release()
	for qi := 0; qi < queries; qi++ {
		q := []int{rng.Intn(n)}
		if qi%2 == 1 {
			q = append(q, rng.Intn(n))
		}
		for _, base := range diffAlgos() {
			req := base
			req.Q = q
			want, werr := oracle.Query(ctx, req)
			got, gerr := router.Query(ctx, req)
			label := fmt.Sprintf("op %d, q=%v, algo %s", opCount, q, req.Algo)
			if routerOutcome(werr) != routerOutcome(gerr) {
				t.Errorf("%s: oracle err %v, router err %v", label, werr, gerr)
				continue
			}
			if werr != nil {
				continue
			}
			if !sameCommunity(want, got) {
				t.Errorf("%s: oracle %s vs router %s\noracle vertices: %v\nrouter vertices: %v",
					label, want.String(), got.String(),
					want.Vertices(), got.Vertices())
				continue
			}
			if want.QueryDist() != got.QueryDist() {
				t.Errorf("%s: query dist %d vs %d", label, want.QueryDist(), got.QueryDist())
			}
			if want.Algorithm != got.Algorithm {
				t.Errorf("%s: algorithm label %q vs %q", label, want.Algorithm, got.Algorithm)
			}
			if len(got.Stats.ShardEpochs) != shards {
				t.Errorf("%s: ShardEpochs has %d entries, want %d", label, len(got.Stats.ShardEpochs), shards)
			}
		}
	}
}

func TestDifferentialRouterVsSingleShard(t *testing.T) {
	for _, shards := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("hash_%d", shards), func(t *testing.T) {
			runDifferential(t, shards, false, 11)
		})
	}
	t.Run("community_4", func(t *testing.T) {
		runDifferential(t, 4, true, 23)
	})
}
