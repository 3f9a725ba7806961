package truss

import (
	"repro/internal/graph"
)

// MaintainScratch holds the reusable state of the maintenance cascade: the
// doomed-edge queue, its membership bitset (cleared by walking the queue, so
// reuse is O(touched)), and the result buffers. A zero MaintainScratch is
// ready to use; pooled query workspaces keep one per worker so steady-state
// peeling iterations allocate nothing.
type MaintainScratch struct {
	queue        []int32
	inQueue      graph.Bitset
	removedVerts []int
}

func (s *MaintainScratch) grow(m int) {
	if need := (m + 63) / 64; len(s.inQueue) < need {
		s.inQueue = make(graph.Bitset, need)
	}
}

// MaintainKTrussScratch implements Algorithm 3 of the paper. It deletes the
// vertices vd (and their incident edges) from mu, then iteratively removes
// every edge whose support in the shrinking graph drops below k-2, updating
// the dense support table sup (indexed by mu's base edge IDs) in place.
// Finally it drops vertices left isolated.
//
// The cascade is allocation-light: the pending set is a bitset over mu's
// base edge IDs, so the steady state does no hashing.
//
// It returns the vertices removed (vd plus cascade victims) and the base
// edge IDs of every edge deleted, so callers like Algorithm 1 can stamp an
// exact deletion timeline (edge-level: an intermediate graph is not induced,
// since the cascade can drop an edge while both endpoints survive). The
// returned slices alias the scratch s and are valid until its next use.
//
// Isolated-vertex detection inspects only the deletion candidates — vd and
// the endpoints of removed edges — rather than scanning every vertex, so a
// vertex that was already isolated on entry (which the search pipelines
// never produce: every subgraph they peel is an edge-connected component
// plus query vertices) is not reported.
func MaintainKTrussScratch(mu *graph.Mutable, sup []int32, k int32, vd []int, s *MaintainScratch) (removedVerts []int, removedEdges []int32) {
	base := mu.Base()
	s.grow(base.M())
	queue := s.queue[:0]
	// Seed the removal queue with all edges incident to vd, iterating the
	// base CSR directly (a closure here would be re-boxed every call — this
	// runs once per peeling iteration).
	for _, v := range vd {
		if !mu.Present(v) {
			continue
		}
		for _, e := range base.NeighborEdgeIDs(v) {
			if mu.EdgeAlive(e) && !s.inQueue.Get(e) {
				s.inQueue.Set(e)
				queue = append(queue, e)
			}
		}
	}
	removedEdges = cascade(mu, sup, k, queue, s.inQueue)
	s.queue = removedEdges // keep the grown backing array for reuse
	// Line 10: remove isolated vertices. Only vd and endpoints of removed
	// edges can have lost their last edge.
	removedVerts = s.removedVerts[:0]
	for _, v := range vd {
		if mu.Present(v) && mu.Degree(v) == 0 {
			mu.DeleteVertex(v)
			removedVerts = append(removedVerts, v)
		}
	}
	for _, e := range removedEdges {
		u, v := base.EdgeEndpoints(e)
		if mu.Present(u) && mu.Degree(u) == 0 {
			mu.DeleteVertex(u)
			removedVerts = append(removedVerts, u)
		}
		if mu.Present(v) && mu.Degree(v) == 0 {
			mu.DeleteVertex(v)
			removedVerts = append(removedVerts, v)
		}
	}
	s.removedVerts = removedVerts
	return removedVerts, removedEdges
}

// cascade drains the queue of doomed edges: removing an edge decrements the
// support of the other two edges of each triangle it participated in; any
// edge falling below k-2 joins the queue (lines 4-9 of Algorithm 3). It
// returns the removed edges compacted in place over the queue's storage
// (allocation-free apart from queue growth) and clears each drained edge's
// membership bit, leaving inQueue all-zero on return — safe because dead
// edges never reappear as triangle wings, so a cleared edge cannot be
// re-enqueued.
func cascade(mu *graph.Mutable, sup []int32, k int32, queue []int32, inQueue graph.Bitset) []int32 {
	w := 0
	for head := 0; head < len(queue); head++ {
		e := queue[head]
		inQueue.Clear(e)
		if !mu.EdgeAlive(e) {
			continue
		}
		u, v := mu.Base().EdgeEndpoints(e)
		mu.CommonNeighborsEdges(u, v, func(_, euw, evw int32) {
			if !inQueue.Get(euw) {
				sup[euw]--
				if sup[euw] < k-2 {
					inQueue.Set(euw)
					queue = append(queue, euw)
				}
			}
			if !inQueue.Get(evw) {
				sup[evw]--
				if sup[evw] < k-2 {
					inQueue.Set(evw)
					queue = append(queue, evw)
				}
			}
		})
		mu.DeleteEdgeByID(e)
		sup[e] = 0
		queue[w] = e
		w++
	}
	return queue[:w]
}

// DropBelowSupport removes every edge of mu whose support is below k-2,
// cascading, without deleting any seed vertices. Used to restore the k-truss
// property after arbitrary edge deletions. sup must be the current dense
// support table (indexed by mu's base edge IDs) and is updated in place.
// Isolated vertices are removed; returns them.
func DropBelowSupport(mu *graph.Mutable, sup []int32, k int32) []int {
	base := mu.Base()
	queue := make([]int32, 0, 16)
	inQueue := graph.NewBitset(base.M())
	mu.ForEachLiveEdge(func(e int32, _, _ int) {
		if sup[e] < k-2 {
			inQueue.Set(e)
			queue = append(queue, e)
		}
	})
	cascade(mu, sup, k, queue, inQueue)
	removed := make([]int, 0)
	for v := 0; v < mu.NumIDs(); v++ {
		if mu.Present(v) && mu.Degree(v) == 0 {
			mu.DeleteVertex(v)
			removed = append(removed, v)
		}
	}
	return removed
}
