package core

import (
	"errors"

	"repro/internal/graph"
	"repro/internal/truss"
	"repro/internal/trussindex"
)

// cancelStride is the loop stride between workspace cancel-hook polls in
// the query paths that are not naturally round-structured.
const cancelStride = 1 << 12

// peelRule selects which far-from-query vertices a peeling iteration deletes.
type peelRule int

const (
	// peelSingle deletes one furthest vertex per iteration (Algorithm 1).
	peelSingle peelRule = iota
	// peelBulk deletes L = {u : dist(u,Q) >= d-1} per iteration, where d is
	// the running minimum graph query distance (Algorithm 4). Guarantees
	// >= k deletions per iteration (Lemma 6) at the cost of the ε in the
	// (2+ε) approximation.
	peelBulk
	// peelBulkExact deletes L' = {u : dist(u,Q) >= d}, i.e. only the
	// current furthest vertices, preferring those with the largest total
	// distance to the query set — the readjusted rule of §5.2 used inside
	// LCTC, which restores the 2-approximation.
	peelBulkExact
)

const infDist int32 = 1 << 30

// peelState aliases the workspace buffers one peeling query runs on. All
// per-vertex state is maintained only for the live vertices, so every
// iteration costs O(live subgraph), never O(n).
type peelState struct {
	ws *trussindex.Workspace
	// live lists the present vertices of the working graph; livePos (ValC
	// under StampC) is its inverse. Maintained incrementally as the
	// maintenance cascade deletes vertices.
	live []int32
	// maxDist (ValB) = dist(v, Q) with unreachable mapped to infDist;
	// sumDist = Σ_q dist(v, q) for the §5.2 tie preference. Both are
	// rewritten for every live vertex each iteration (write-before-read),
	// so they need no stamping.
	maxDist []int32
	sumDist []int64
	graphD  int32 // dist(G_l, Q) = max over live vertices
}

// computeDistances fills maxDist/sumDist/graphD by one stamped BFS per
// query vertex, merging over the reached sets only.
func (st *peelState) computeDistances(work *graph.Mutable, q []int) {
	ws := st.ws
	for _, vq := range st.live {
		st.maxDist[vq] = 0
		st.sumDist[vq] = 0
	}
	for _, src := range q {
		reach := graph.BFSMarked(work, src, ws.ValA, ws.StampA, ws.QueueA)
		ws.QueueA = reach
		// Unreached live vertices get infDist; reached ones accumulate.
		for _, vq := range st.live {
			if st.maxDist[vq] == infDist {
				continue
			}
			if !ws.StampA.Marked(vq) {
				st.maxDist[vq] = infDist
				continue
			}
			if d := ws.ValA[vq]; d > st.maxDist[vq] {
				st.maxDist[vq] = d
			}
			st.sumDist[vq] += int64(ws.ValA[vq])
		}
	}
	st.graphD = 0
	for _, vq := range st.live {
		if st.maxDist[vq] > st.graphD {
			st.graphD = st.maxDist[vq]
		}
	}
}

// queriesConnected reports whether all query vertices are present and
// mutually reachable, judged from the filled distances (dist(q0, qi) finite
// for all i is equivalent to mutual reachability in an undirected graph).
func (st *peelState) queriesConnected(work *graph.Mutable, q []int) bool {
	for _, v := range q {
		if !work.Present(v) {
			return false
		}
	}
	return st.maxDist[q[0]] != infDist
}

// dropLive removes v from the live list in O(1) by swapping with the tail.
func (st *peelState) dropLive(v int) {
	ws := st.ws
	p := ws.ValC[v]
	last := int32(len(st.live) - 1)
	w := st.live[last]
	st.live[p] = w
	ws.ValC[w] = p
	st.live = st.live[:last]
}

// greedyPeel runs the shared peeling framework on work, a connected k-truss
// containing q that is an overlay of the workspace's Expansion graph, and
// returns the intermediate graph with the smallest graph query distance; the
// answer is the component of q in it. The peel deletes from work itself and
// hands it back restored to that graph, and all scratch comes from ws and its
// Expansion, so the steady state allocates nothing. The workspace cancel hook
// is polled once per peel round (each round is a handful of BFS passes over
// the live subgraph), so cancellation returns promptly without per-edge
// checks; rounds and removed edges are tallied into qs.
func greedyPeel(work *graph.Mutable, k int32, q []int, rule peelRule, ws *trussindex.Workspace, qs *QueryStats) (*graph.Mutable, error) {
	x := ws.Expansion()
	supBuf, sumDist := x.PeelBuffers()
	sup := graph.MutableEdgeSupportsInto(work, supBuf)

	// Query membership marks (StampB) back the peel rules' tie preferences.
	qEpoch := ws.StampB.Next()
	for _, v := range q {
		ws.StampB.Mark[v] = qEpoch
	}

	st := &peelState{ws: ws, maxDist: ws.ValB, sumDist: sumDist}
	// The live list starts as the component of q[0] — all of work, which is
	// connected by construction — plus any isolated query vertices.
	reach := graph.BFSMarked(work, q[0], ws.ValA, ws.StampA, ws.QueueA)
	ws.QueueA = reach
	st.live = append(ws.QueueB[:0], reach...)
	for _, v := range q {
		if work.Present(v) && !ws.StampA.Marked(int32(v)) {
			st.live = append(st.live, int32(v))
		}
	}
	posEpoch := ws.StampC.Next()
	for i, vq := range st.live {
		ws.StampC.Mark[vq] = posEpoch
		ws.ValC[vq] = int32(i)
	}

	// removed logs every deleted edge in deletion order, and cut[l] is its
	// length when round l measured G_l, so G_l is what is left at the end
	// plus removed[cut[l]:]. The log is per edge, not per vertex: the
	// truss-maintenance cascade can delete an edge while both endpoints
	// survive, so intermediate graphs are not induced subgraphs.
	qdHist, cut, removed := x.Hist[:0], x.Cut[:0], x.Removed[:0]
	defer func() {
		x.Hist, x.Cut, x.Removed = qdHist, cut, removed
		ws.QueueB = st.live[:0]
	}()
	d := infDist // running minimum for the bulk rules
	for {
		if err := ws.Canceled(); err != nil {
			return nil, err
		}
		qs.PeelRounds++
		st.computeDistances(work, q)
		// The query set is mutually connected iff every query vertex is
		// present and reaches q[0] — read off the distances just computed
		// instead of running a separate BFS.
		if !st.queriesConnected(work, q) {
			break
		}
		qdHist = append(qdHist, st.graphD)
		cut = append(cut, int32(len(removed)))
		if st.graphD < d {
			d = st.graphD
		}
		// The largest query-to-query distance bounds every later round's
		// graph query distance from below (distances only grow as edges go,
		// and the query vertices stay), and the answer is the earliest round
		// of minimum distance: once d is no larger, no later round can win.
		lb := int32(0)
		for _, v := range q {
			if st.maxDist[v] > lb {
				lb = st.maxDist[v]
			}
		}
		if d <= lb {
			break
		}
		victims := selectVictims(st, rule, d)
		if len(victims) == 0 {
			break // every vertex is a query vertex at distance < d-1
		}
		removedVerts, removedEdges := truss.MaintainKTrussScratch(work, sup, k, victims, &ws.Maintain)
		if len(removedEdges) == 0 {
			break // defensive: no progress
		}
		qs.EdgesPeeled += len(removedEdges)
		removed = append(removed, removedEdges...)
		for _, v := range removedVerts {
			st.dropLive(v)
		}
	}
	if len(qdHist) == 0 {
		return nil, errors.New("core: no feasible intermediate graph")
	}
	best := 0
	for l, qd := range qdHist {
		if qd < qdHist[best] {
			best = l
		}
	}
	// Restore G_best by reviving what was deleted from round best on.
	for _, e := range removed[cut[best]:] {
		work.AddEdgeByID(e)
	}
	for _, v := range q {
		work.EnsureVertex(v)
	}
	return work, nil
}

// selectVictims applies the rule to choose this iteration's deletions,
// writing into the workspace's victim buffer.
func selectVictims(st *peelState, rule peelRule, d int32) []int {
	ws := st.ws
	isQuery := func(v int32) bool { return ws.StampB.Marked(v) }
	victims := ws.Victims[:0]
	switch rule {
	case peelSingle:
		// One argmax vertex under the total order (maxDist desc, non-query
		// before query, smallest ID) — the same vertex the seed's ascending
		// ID scan picked, computed order-independently over the live list.
		pick := int32(-1)
		for _, v := range st.live {
			if pick < 0 {
				pick = v
				continue
			}
			dv, dp := st.maxDist[v], st.maxDist[pick]
			switch {
			case dv > dp:
				pick = v
			case dv == dp:
				qv, qp := isQuery(v), isQuery(pick)
				if (qp && !qv) || (qv == qp && v < pick) {
					pick = v
				}
			}
		}
		if pick < 0 || st.maxDist[pick] == 0 {
			return nil // a single query vertex remains
		}
		victims = append(victims, int(pick))
		ws.Victims = victims
		return victims

	case peelBulk:
		for _, v := range st.live {
			if st.maxDist[v] >= d-1 {
				victims = append(victims, int(v))
			}
		}
		ws.Victims = victims
		return victims

	case peelBulkExact:
		// L' = furthest vertices only; among them keep those with the
		// largest total distance to Q.
		var best int64 = -1
		for _, v := range st.live {
			if st.maxDist[v] >= d && st.maxDist[v] != 0 && st.maxDist[v] != infDist {
				if st.sumDist[v] > best {
					best = st.sumDist[v]
				}
			}
		}
		for _, v := range st.live {
			if st.maxDist[v] < d || st.maxDist[v] == 0 {
				continue
			}
			if st.maxDist[v] == infDist || st.sumDist[v] >= best {
				victims = append(victims, int(v))
			}
		}
		ws.Victims = victims
		return victims
	}
	return nil
}
