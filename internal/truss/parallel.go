package truss

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
)

// ParallelThreshold is the edge count below which DecomposeParallel falls
// back to the serial bucket-queue peel: under it the per-round goroutine
// fan-out and barriers cost more than the parallelism saves.
const ParallelThreshold = 1 << 14

// frontierBlock is the work-stealing granule of a peel round: workers claim
// blocks of this many frontier edges at a time. Big enough that the atomic
// cursor bump amortizes, small enough that a block of hub edges (whose
// triangle enumerations dominate) does not serialize the round.
const frontierBlock = 64

// DecomposeParallel computes the truss decomposition of g with a
// level-synchronous peel (PKT style): instead of removing one minimum-
// support edge at a time, each round removes the entire frontier of edges
// whose support has dropped to the current level, sharding the frontier over
// GOMAXPROCS goroutines that cascade support decrements through the dense
// []int32 support array with atomic adds. The initial support pass is the
// serial graph.EdgeSupports. The result is identical to Decompose — both
// compute the unique trussness labels — and the differential/fuzz harness in
// this package cross-checks them edge for edge.
//
// Graphs below ParallelThreshold edges, and processes capped at one CPU,
// take the serial bucket-queue path instead. No production path calls it:
// it was slower than Decompose at every worker count measured, and it stays
// only for the benchmark ladder until that rung is deleted.
func DecomposeParallel(g *graph.Graph) *Decomposition {
	workers := runtime.GOMAXPROCS(0)
	if workers < 2 || g.M() < ParallelThreshold {
		return Decompose(g)
	}
	return decomposeParallel(g, workers)
}

// decomposeParallel is the level-synchronous peel with an explicit worker
// count and no size fallback, so tests and benchmarks can force the parallel
// machinery onto arbitrarily small graphs.
//
// Invariants of the peel:
//
//   - At the start of a support level s, every unpeeled edge has support
//     > s-1; the level's first frontier is every edge with sup <= s.
//   - Within a round, frontier membership (inRound) and peeled liveness are
//     frozen; only supports change, via atomic decrements. A triangle is
//     counted once: if both partners peel this round nobody decrements, if
//     one partner is in the frontier the lower edge ID of the two frontier
//     edges owns the decrement of the survivor, otherwise the processing
//     edge decrements both partners.
//   - Supports step down by one per decrement, so an edge crossing the
//     level boundary returns exactly s from its atomic decrement exactly
//     once — that decrement appends it to the next round's frontier, giving
//     exactly-once scheduling without locks. Supports may keep dropping
//     below s afterwards; the edge is already scheduled and its label is
//     fixed by the level, so the undershoot is harmless.
//   - When a level's cascade dries up, every remaining edge has support
//     > s and the loop jumps straight to the minimum remaining support.
func decomposeParallel(g *graph.Graph, workers int) *Decomposition {
	m := g.M()
	d := &Decomposition{
		G:           g,
		Truss:       make([]int32, m),
		VertexTruss: make([]int32, g.N()),
	}
	if m == 0 {
		return d
	}
	if workers < 1 {
		workers = 1
	}
	sup := graph.EdgeSupports(g)
	peeled := graph.NewBitset(m)
	// inRound[e] == round marks e as a member of the frontier currently
	// being peeled (round ids start at 1, so the zero value never matches).
	inRound := make([]int32, m)
	// remaining compacts the unpeeled edge IDs; each level's scan partitions
	// it into the frontier and the survivors, so scan work shrinks with the
	// graph instead of staying O(m) per level.
	remaining := make([]int32, m)
	for e := range remaining {
		remaining[e] = int32(e)
	}
	curr := make([]int32, 0, frontierBlock*workers)
	next := make([][]int32, workers)
	round := int32(0)
	done := 0
	for s := int32(0); done < m; {
		curr = curr[:0]
		rest := remaining[:0]
		minSup := int32(math.MaxInt32)
		for _, e := range remaining {
			if peeled.Get(e) {
				continue // scheduled into a cascade round of an earlier level
			}
			if sup[e] <= s {
				curr = append(curr, e)
			} else {
				rest = append(rest, e)
				if sup[e] < minSup {
					minSup = sup[e]
				}
			}
		}
		remaining = rest
		if len(curr) == 0 {
			s = minSup // skip empty support levels
			continue
		}
		level := s + 2
		for len(curr) > 0 {
			round++
			for _, e := range curr {
				inRound[e] = round
			}
			peelFrontier(g, curr, sup, peeled, inRound, round, s, next, workers)
			for _, e := range curr {
				d.Truss[e] = level
				peeled.Set(e)
			}
			done += len(curr)
			curr = curr[:0]
			for w, buf := range next {
				curr = append(curr, buf...)
				next[w] = buf[:0]
			}
		}
		s++
	}
	d.finishVertexTruss()
	return d
}

// peelFrontier destroys the triangles of every frontier edge, decrementing
// surviving partners' supports. Workers steal frontierBlock-sized slices of
// the frontier through an atomic cursor and append newly crossing edges to
// their own next buffer; the WaitGroup barrier publishes the buffers and the
// support updates back to the coordinating goroutine. Small frontiers (one
// block) run inline — deep cascade tails would otherwise pay a goroutine
// fan-out per round for a handful of edges.
func peelFrontier(g *graph.Graph, curr []int32, sup []int32, peeled graph.Bitset,
	inRound []int32, round, s int32, next [][]int32, workers int) {
	nblocks := (len(curr) + frontierBlock - 1) / frontierBlock
	if workers > nblocks {
		workers = nblocks
	}
	if workers < 2 {
		next[0] = peelRange(g, curr, sup, peeled, inRound, round, s, next[0])
		return
	}
	var cursor int64 = -1
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			local := next[w]
			for {
				bi := int(atomic.AddInt64(&cursor, 1))
				if bi >= nblocks {
					break
				}
				lo := bi * frontierBlock
				hi := lo + frontierBlock
				if hi > len(curr) {
					hi = len(curr)
				}
				local = peelRange(g, curr[lo:hi], sup, peeled, inRound, round, s, local)
			}
			next[w] = local
		}(w)
	}
	wg.Wait()
}

// peelRange processes one slice of the frontier. For every triangle of a
// frontier edge whose two partner edges are still unpeeled, the surviving
// partners' supports drop by one; the decrement that lands exactly on the
// level boundary s schedules the partner for the next round.
func peelRange(g *graph.Graph, curr []int32, sup []int32, peeled graph.Bitset,
	inRound []int32, round, s int32, out []int32) []int32 {
	drop := func(f int32) {
		if atomic.AddInt32(&sup[f], -1) == s {
			out = append(out, f)
		}
	}
	for _, e := range curr {
		u, v := g.EdgeEndpoints(e)
		g.ForEachCommonNeighborEdge(u, v, func(_, e1, e2 int32) {
			if peeled.Get(e1) || peeled.Get(e2) {
				return // triangle already destroyed by an earlier round
			}
			in1 := inRound[e1] == round
			in2 := inRound[e2] == round
			switch {
			case in1 && in2:
				// The whole triangle peels this round; no survivors.
			case in1:
				// e and e1 both peel and both enumerate this triangle; the
				// smaller edge ID owns the survivor's single decrement.
				if e < e1 {
					drop(e2)
				}
			case in2:
				if e < e2 {
					drop(e1)
				}
			default:
				drop(e1)
				drop(e2)
			}
		})
	}
	return out
}
