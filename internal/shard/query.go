package shard

import (
	"context"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/truss"
	"repro/internal/trussindex"
)

// gatherPollStride bounds how many vertex expansions the gather BFS does
// between context polls, mirroring the peel-round/BFS-level cancellation
// granularity of the core search pipeline.
const gatherPollStride = 4096

// Query answers one community-search request against the sharded tier.
//
// N == 1 delegates straight to the single manager — same admission gate,
// cache, and snapshot path as unsharded serving, byte-identical answers —
// and only stamps the one-entry epoch vector on the way out.
//
// N > 1 runs the scatter-gather merge pipeline:
//
//  1. Acquire one RCU snapshot per shard. The per-shard epoch vector of
//     the answer is exactly these epochs, stamped into
//     QueryStats.ShardEpochs (Epoch is their maximum). Skew between
//     entries is the staleness the merge tolerated: shards publish
//     independently, so an edge acknowledged on one home may not be
//     visible on the other until both have published past it; after
//     Flush the vector is consistent and the answer exact.
//  2. Validate the request against the tier-wide vertex space (the max
//     over shard snapshots). A query vertex no shard has ever seen fails
//     with core.ErrVertexOutOfRange, exactly like the single-shard plane.
//  3. Scatter: fan the request to the shards owning the query vertices
//     and run the full local search on each acquired snapshot. Partial
//     communities seed the gather frontier; a shard that finds nothing
//     locally (its subgraph may cut the community) contributes nothing
//     and is not an error.
//  4. Gather: multi-round BFS over the snapshots reconstructs the exact
//     connected component of the query. Every vertex's full adjacency
//     lives at its home shard (the cut-edge replication invariant), so
//     expanding each frontier vertex at its home — reading every shard
//     that lists it, to tolerate replication skew — yields every edge of
//     the component.
//  5. Merge: re-decompose the gathered union and run the search on it.
//     Trussness, and every one of the four algorithms, is a function of
//     the connected component containing the query alone, so recomputing
//     on the exact component equals the single-shard answer (the LCTC
//     distance penalty's MaxTruss term shifts uniformly under component
//     restriction, which preserves every argmin).
func (r *Router) Query(ctx context.Context, req core.Request) (*core.Result, error) {
	if len(r.mgrs) == 1 {
		res, err := r.mgrs[0].Query(ctx, req)
		if res != nil {
			res.Stats.ShardEpochs = []int64{res.Stats.Epoch}
		}
		return res, err
	}
	start := time.Now()
	res, err := r.scatterGather(ctx, req, start)
	r.observeQuery(req, res, err, time.Since(start))
	return res, err
}

func (r *Router) scatterGather(ctx context.Context, req core.Request, start time.Time) (*core.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	snaps := make([]*serve.Snapshot, len(r.mgrs))
	for i, m := range r.mgrs {
		snaps[i] = m.Acquire()
	}
	defer func() {
		for _, s := range snaps {
			s.Release()
		}
	}()
	epochs := make([]int64, len(snaps))
	var maxEpoch int64
	routerN := 0
	for i, s := range snaps {
		epochs[i] = s.Epoch()
		if epochs[i] > maxEpoch {
			maxEpoch = epochs[i]
		}
		if n := s.Graph().N(); n > routerN {
			routerN = n
		}
	}
	if err := req.Validate(routerN); err != nil {
		return nil, err
	}

	scatterStart := time.Now()
	seeds, found := r.scatter(ctx, req, snaps)
	scatterDur := time.Since(scatterStart)

	gatherStart := time.Now()
	union, comp, err := r.gather(ctx, req.Q, seeds, snaps, routerN)
	gatherDur := time.Since(gatherStart)
	if err != nil {
		return nil, err
	}

	mergeStart := time.Now()
	d, err := truss.DecomposeCancelable(union, ctx.Err)
	if err != nil {
		return nil, err
	}
	ix := trussindex.BuildFromDecomposition(union, d)
	res, err := core.NewSearcher(ix).Search(ctx, req)
	mergeDur := time.Since(mergeStart)

	r.observePhases(scatterDur, gatherDur, mergeDur, comp, union.M(), found)
	if err != nil {
		return nil, err
	}
	res.Stats.Epoch = maxEpoch
	res.Stats.ShardEpochs = epochs
	// Total covers the whole router pipeline — scatter and gather included —
	// so TotalWithQueue stays the client-observed latency. The phase fields
	// (Seed/Expand/Peel) describe the merge-phase search; the invariant
	// Total >= Seed+Expand+Peel only widens.
	res.Stats.Total = time.Since(start)
	return res, nil
}

// scatter runs the request on each involved shard's acquired snapshot (the
// shards owning the query vertices) and returns the union of the partial
// communities' vertex sets as extra gather seeds, plus how many shards
// found a local community. Partial failures (a shard whose subgraph cuts
// the community below k, an out-of-range vertex for that shard) are
// expected and simply contribute no seeds.
func (r *Router) scatter(ctx context.Context, req core.Request, snaps []*serve.Snapshot) (seeds []int, found int) {
	involved := involvedShards(r.part, req.Q)
	if len(involved) == 1 {
		seeds, ok := scatterOne(ctx, req, snaps[involved[0]])
		if ok {
			found = 1
		}
		return seeds, found
	}
	type partial struct {
		verts []int
		ok    bool
	}
	parts := make([]partial, len(involved))
	done := make(chan int, len(involved))
	for i, s := range involved {
		go func(i, s int) {
			parts[i].verts, parts[i].ok = scatterOne(ctx, req, snaps[s])
			done <- i
		}(i, s)
	}
	for range involved {
		<-done
	}
	for _, p := range parts {
		seeds = append(seeds, p.verts...)
		if p.ok {
			found++
		}
	}
	return seeds, found
}

func scatterOne(ctx context.Context, req core.Request, snap *serve.Snapshot) ([]int, bool) {
	local := req
	local.Verify = false // partials feed the merge; only the merged answer is verified
	res, err := snap.Query(ctx, local)
	if err != nil || res == nil {
		return nil, false
	}
	return res.Vertices(), true
}

// involvedShards returns the deduplicated home shards of the query
// vertices, in first-appearance order.
func involvedShards(p *Partitioner, q []int) []int {
	var out []int
	for _, v := range q {
		h := p.Home(v)
		dup := false
		for _, s := range out {
			if s == h {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, h)
		}
	}
	return out
}
