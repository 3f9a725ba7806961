// Package truss implements the k-truss machinery the paper builds on:
// edge-support computation, truss decomposition by peeling (Wang & Cheng
// style), trussness of edges/vertices/subgraphs, maximal connected k-truss
// extraction, and the k-truss maintenance cascade of Algorithm 3.
//
// A connected k-truss (Definition 1) is a connected subgraph H in which every
// edge is contained in at least k-2 triangles of H. The trussness τ(e) of an
// edge is the largest k such that some k-truss contains e (Definition 2).
//
// All hot paths run over flat arrays indexed by the graph's dense edge IDs:
// supports and trussness are []int32, the peeling queue is the standard
// bucket array with position swaps (the same O(1) decrease-key structure
// used for core decomposition), and edge liveness is a bitset. The triangle
// work of a decomposition is graph.Peel's: on a graph without bit rows the
// supports cost O(m^1.5) and each peeled edge at most twice the live degrees
// of its endpoints at the time it is peeled; a small per-query graph with
// rows pays an n/64-word AND per edge instead. DecomposeNaive
// retains the original map-based implementation as a differential-testing
// oracle.
package truss

import (
	"repro/internal/graph"
)

// Decomposition holds the full truss decomposition of a graph. Trussness is
// stored densely, indexed by the edge IDs of G; EdgeKey-based accessors are
// provided for callers that work with packed keys.
type Decomposition struct {
	// G is the decomposed graph, defining the edge-ID space of Truss.
	G *graph.Graph
	// Truss[e] is the trussness τ(e) >= 2 of the edge with ID e.
	Truss []int32
	// VertexTruss[v] is τ(v) = max trussness of an incident edge (0 if v has
	// no edges).
	VertexTruss []int32
	// MaxTruss is τ̄(∅), the maximum edge trussness in the graph (0 if the
	// graph has no edges).
	MaxTruss int32
}

// Decompose computes the truss decomposition of g by peeling edges in
// non-decreasing support order, cascading support decrements through the
// triangles of each removed edge. It is serial and takes O(m) space. The
// supports come from a forward triangle listing, O(m^1.5); the peel finds
// the triangles of an edge (u, v) from marks on one endpoint over adjacency
// lists that shed their dead arcs, O(d(u) + d(v)) with d the live degrees at
// the time, or O(d) of one endpoint when the other's marks are still set
// from the edge before.
func Decompose(g *graph.Graph) *Decomposition {
	d, _ := decompose(g, 0, nil, nil)
	return d
}

// DecomposeCancelable is Decompose with a cancellation hook: poll (may be
// nil) is called every few thousand peeled edges and a non-nil return
// abandons the peel, propagating that error with no decomposition built.
func DecomposeCancelable(g *graph.Graph, poll func() error) (*Decomposition, error) {
	return decompose(g, 0, poll, nil)
}

// DecomposeCapped is DecomposeCancelable for a caller that never looks above
// trussness capK (LCTC passes k_t): labels come back as min(τ, capK), with
// capK <= 0 meaning no cap. All working storage, and the label arrays of the
// returned Decomposition, come from sc, so the result is valid until sc is
// next used; a pooled sc makes the steady state allocation-free apart from
// the Decomposition header. This is the per-query path: it runs the serial
// peel on purpose, because concurrent queries each spawning a GOMAXPROCS-wide
// parallel peel would oversubscribe the scheduler.
func DecomposeCapped(g *graph.Graph, capK int32, poll func() error, sc *Scratch) (*Decomposition, error) {
	return decompose(g, capK, poll, sc)
}

// Scratch is the reusable working storage of one decomposition: the support
// array, the bucket queue, the label arrays and the graph.Peel that holds
// liveness, marks and the peel's own copy of the adjacency.
// Nothing in it is tied to a particular graph; the zero value is ready to
// use.
type Scratch struct {
	sup, order, pos, binStart, next []int32
	truss, vertexTruss              []int32
	live                            graph.Peel
}

// buf returns *p resized to n, reusing its storage when it can.
func buf(p *[]int32, n int) []int32 {
	if cap(*p) < n {
		*p = make([]int32, n)
	}
	*p = (*p)[:n]
	return *p
}

// decompose is the one serial peel. capK <= 0 decomposes fully. capK > 0
// stops the peel as soon as the cheapest remaining edge has support >=
// capK-2: every edge peeled so far has its exact trussness (< capK), every
// remaining edge has trussness >= capK and is labelled capK, so the result
// is min(τ, capK) everywhere. sc == nil allocates everything fresh, and the
// result then owns its arrays.
//
// Liveness is a graph.Peel of g, so the supports and the triangles of a
// peeled edge come from whichever kernel the graph has: forward listing and
// marked neighbours, or the AND of two bit rows on a small per-query graph.
func decompose(g *graph.Graph, capK int32, poll func() error, sc *Scratch) (*Decomposition, error) {
	if sc == nil {
		sc = new(Scratch)
	}
	m := g.M()
	d := &Decomposition{
		G:           g,
		Truss:       buf(&sc.truss, m),
		VertexTruss: buf(&sc.vertexTruss, g.N()),
	}
	clear(d.VertexTruss)
	if m == 0 {
		return d, nil
	}
	live := &sc.live
	sup := live.Reset(g, buf(&sc.sup, m))
	maxSup := int32(0)
	for _, s := range sup {
		if s > maxSup {
			maxSup = s
		}
	}
	// Counting-sort edge IDs by support. order holds edge IDs sorted by
	// current support; pos is its inverse; binStart[s] is the first position
	// of the bucket holding support-s edges. A support decrement moves the
	// edge to the head of its bucket and shrinks the bucket by one — O(1)
	// decrease-key with zero allocation, and no stale entries to skip.
	binStart := buf(&sc.binStart, int(maxSup)+2)
	clear(binStart)
	for _, s := range sup {
		binStart[s+1]++
	}
	for s := int32(1); s <= maxSup+1; s++ {
		binStart[s] += binStart[s-1]
	}
	order := buf(&sc.order, m)
	pos := buf(&sc.pos, m)
	next := append(sc.next[:0], binStart[:maxSup+1]...)
	sc.next = next
	for e := int32(0); e < int32(m); e++ {
		p := next[sup[e]]
		next[sup[e]] = p + 1
		order[p] = e
		pos[e] = p
	}
	// One closure for the whole peel; se is the support of the edge being
	// peeled.
	var se int32
	relax := func(_, euw, evw int32) {
		if sup[euw] > se {
			decreaseKey(euw, sup, order, pos, binStart)
		}
		if sup[evw] > se {
			decreaseKey(evw, sup, order, pos, binStart)
		}
	}
	level := int32(2)
	for i := 0; i < m; i++ {
		if poll != nil && i&4095 == 0 {
			if err := poll(); err != nil {
				return nil, err
			}
		}
		e := order[i]
		se = sup[e]
		if capK > 0 && se+2 >= capK {
			for _, f := range order[i:] {
				d.Truss[f] = capK
			}
			break
		}
		if se+2 > level {
			level = se + 2
		}
		d.Truss[e] = level
		live.DeleteEdge(e, relax)
	}
	d.finishVertexTruss()
	return d, nil
}

// decreaseKey moves edge f one support bucket down: swap it with the first
// edge of its bucket, advance the bucket boundary, decrement its support.
func decreaseKey(f int32, sup, order, pos, binStart []int32) {
	sf := sup[f]
	pf := pos[f]
	pw := binStart[sf]
	if w := order[pw]; w != f {
		order[pf], order[pw] = w, f
		pos[f], pos[w] = pw, pf
	}
	binStart[sf]++
	sup[f] = sf - 1
}

func (d *Decomposition) finishVertexTruss() {
	for e, k := range d.Truss {
		u, v := d.G.EdgeEndpoints(int32(e))
		if k > d.VertexTruss[u] {
			d.VertexTruss[u] = k
		}
		if k > d.VertexTruss[v] {
			d.VertexTruss[v] = k
		}
		if k > d.MaxTruss {
			d.MaxTruss = k
		}
	}
}

// EdgeTrussOf returns τ(u,v), or 0 if the edge does not exist.
func (d *Decomposition) EdgeTrussOf(u, v int) int32 {
	if d.G == nil {
		return 0
	}
	e := d.G.EdgeID(u, v)
	if e < 0 {
		return 0
	}
	return d.Truss[e]
}

// EdgeTrussKey returns τ(e) for a packed edge key, or 0 if absent.
func (d *Decomposition) EdgeTrussKey(k graph.EdgeKey) int32 {
	u, v := k.Endpoints()
	return d.EdgeTrussOf(u, v)
}

// EdgeTrussMap materializes the edge→trussness table as a map keyed by
// packed edge keys — a compatibility adapter for callers (and reference
// implementations) that are not written against dense edge IDs. O(m).
func (d *Decomposition) EdgeTrussMap() map[graph.EdgeKey]int32 {
	out := make(map[graph.EdgeKey]int32, len(d.Truss))
	for e, k := range d.Truss {
		out[d.G.EdgeKeyOf(int32(e))] = k
	}
	return out
}

// QueryUpperBound returns the Lemma 1 upper bound on the trussness of any
// connected k-truss containing Q: min over q of τ(q). Returns 0 if Q is
// empty or some query vertex has no edges.
func (d *Decomposition) QueryUpperBound(q []int) int32 {
	if len(q) == 0 {
		return d.MaxTruss
	}
	min := int32(-1)
	for _, v := range q {
		if v < 0 || v >= len(d.VertexTruss) {
			return 0
		}
		t := d.VertexTruss[v]
		if min < 0 || t < min {
			min = t
		}
	}
	if min < 0 {
		return 0
	}
	return min
}

// EdgesAtLeast returns all edges with trussness >= k, in ascending key
// order. The output is sized exactly (count first, then fill).
func (d *Decomposition) EdgesAtLeast(k int32) []graph.EdgeKey {
	count := 0
	for _, t := range d.Truss {
		if t >= k {
			count++
		}
	}
	out := make([]graph.EdgeKey, 0, count)
	for e, t := range d.Truss {
		if t >= k {
			out = append(out, d.G.EdgeKeyOf(int32(e)))
		}
	}
	return out
}

// MutableAtLeast returns a Mutable over G containing exactly the edges with
// trussness >= k — the maximal (not necessarily connected) k-truss — without
// rebuilding adjacency: it is an edge-bitset overlay of G.
func (d *Decomposition) MutableAtLeast(k int32) *graph.Mutable {
	mu := graph.NewMutableShell(d.G)
	for e, t := range d.Truss {
		if t >= k {
			mu.AddEdgeByID(int32(e))
		}
	}
	return mu
}

// Thresholds returns the distinct edge trussness values present, descending.
func (d *Decomposition) Thresholds() []int32 {
	if d.MaxTruss == 0 {
		return nil
	}
	seen := make([]bool, d.MaxTruss+1)
	for _, t := range d.Truss {
		seen[t] = true
	}
	out := make([]int32, 0, len(seen))
	for t := d.MaxTruss; t >= 2; t-- {
		if seen[t] {
			out = append(out, t)
		}
	}
	return out
}
