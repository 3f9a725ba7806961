package graph

// Peel is the liveness of a truss peel: every edge of a graph starts alive,
// edges are only ever deleted, and each deletion reports the triangles the
// edge was still in. It also counts the supports the peel starts from. The
// zero value is ready to use; Reset binds it to a graph, reusing its storage,
// so a pooled Peel allocates only while it grows.
//
// On a graph with bit rows the kernels are the rows': a support is a
// popcount of two static rows, the triangles of a deleted edge are the set
// bits of two live rows ANDed. On a graph without rows Peel keeps its own
// copy of the adjacency and a mark per vertex:
//
//   - Supports come from a forward triangle listing (Chiba–Nishizeki;
//     Latapy's compact-forward). Each edge is oriented toward the endpoint of
//     higher (degree, ID) rank, so no vertex has more than √(2m) out-arcs;
//     marking u's out-neighbours and scanning their out-arcs finds every
//     triangle once, from its lowest-ranked vertex, in O(m^1.5) steps.
//   - The triangles of a deleted edge (u, v) come from marks: mark[w] names
//     the edge (x, w) for every stored arc of one endpoint x, and the other
//     endpoint's stored arcs are looked up in it. The marks stay while
//     consecutive deletions share x, so a run of edges around one vertex
//     marks it once.
//   - A vertex's stored arcs are compacted once half of them are dead, so a
//     deletion costs at most twice the live degrees of its endpoints at the
//     time it is peeled, not their degrees in the whole graph.
type Peel struct {
	// live holds the alive bits and, on a graph with rows, the live rows.
	live Mutable
	// arcs[g.off[v]:end[v]] are v's stored arcs, a superset of its live
	// ones; dead[v] counts the stored arcs whose edge is dead.
	arcs      []arc
	end, dead []int32
	// mark[w] is x<<32 | e after a stored arc (w, e) of x was marked, and
	// ^0 before any was. Only marks tagged with the current x are read, and
	// a stale one tagged x still names the edge (x, w), so moving the marks
	// never clears them.
	mark   []uint64
	marked int32
}

// arc is one entry of a vertex's peel-owned adjacency: the neighbour w and
// the ID e of the edge to it.
type arc struct{ w, e int32 }

// markOf returns the mark of the arc (w, e) of x.
func markOf(x, e int32) uint64 { return uint64(x)<<32 | uint64(uint32(e)) }

// markedEdge returns the edge (x, w) if mark[w] is tagged x.
func (p *Peel) markedEdge(x, w int32) (int32, bool) {
	m := p.mark[w]
	return int32(uint32(m)), int32(m>>32) == x
}

// Reset binds p to g with every edge alive and returns sup[:g.M()] holding
// every edge's support; sup must have room for g.M() entries.
func (p *Peel) Reset(g *Graph, sup []int32) []int32 {
	p.live.Reset(g)
	p.live.Fill()
	sup = p.supports(g, sup[:g.M()])
	if g.rows == nil {
		p.dead = grown(p.dead, g.N())
		clear(p.dead)
		copy(p.end, g.off[1:])
		p.marked = -1
	}
	return sup
}

// supports writes every edge's support into sup (len g.M()). On a graph
// without rows it leaves arcs holding g's adjacency, each vertex's out-arcs
// first, and end[u] bounding u's out-arcs.
func (p *Peel) supports(g *Graph, sup []int32) []int32 {
	if r := g.rows; r != nil {
		for u := 0; u < g.N(); u++ {
			ids := g.NeighborEdgeIDs(u)
			for i, w := range g.Neighbors(u) {
				if int(w) > u {
					sup[ids[i]] = countCommonRows(r.row(u), r.row(int(w)))
				}
			}
		}
		return sup
	}
	n := g.N()
	p.arcs = grown(p.arcs, len(g.nbr))
	p.end = grown(p.end, n)
	p.mark = grown(p.mark, n)
	for w := range p.mark {
		p.mark[w] = ^uint64(0)
	}
	// Orient: u's arcs to higher-ranked neighbours fill its range from the
	// front, the others from the back.
	for u := 0; u < n; u++ {
		lo, hi := g.off[u], g.off[u+1]
		du := hi - lo
		out, in := lo, hi
		for i := lo; i < hi; i++ {
			w := g.nbr[i]
			if dw := g.off[w+1] - g.off[w]; dw > du || dw == du && int(w) > u {
				p.arcs[out] = arc{w, g.aeid[i]}
				out++
			} else {
				in--
				p.arcs[in] = arc{w, g.aeid[i]}
			}
		}
		p.end[u] = out
	}
	clear(sup)
	for u := int32(0); u < int32(n); u++ {
		out := p.arcs[g.off[u]:p.end[u]]
		for _, a := range out {
			p.mark[a.w] = markOf(u, a.e)
		}
		for _, a := range out {
			for _, b := range p.arcs[g.off[a.w]:p.end[a.w]] {
				if euw, ok := p.markedEdge(u, b.w); ok {
					sup[a.e]++
					sup[b.e]++
					sup[euw]++
				}
			}
		}
	}
	return sup
}

// DeleteEdge deletes the live edge e = (u, v), u < v, and calls fn(w, euw,
// evw) for every triangle (u, v, w) it was in whose other two edges are still
// alive, with euw and evw the IDs of (u, w) and (v, w).
func (p *Peel) DeleteEdge(e int32, fn func(w, euw, evw int32)) {
	p.live.DeleteEdgeByID(e)
	g := p.live.base
	u, v := g.EdgeEndpoints(e)
	if g.rows != nil {
		p.live.commonNeighborsMerged(u, v, fn)
		return
	}
	p.dead[u]++
	p.dead[v]++
	// x is the marked endpoint, y the scanned one. Consecutive edge IDs
	// share their smaller endpoint, so u is the one marked afresh.
	x, y := int32(u), int32(v)
	if p.marked == y {
		x, y = y, x
	} else if p.marked != x {
		for _, a := range p.liveArcs(x) {
			p.mark[a.w] = markOf(x, a.e)
		}
		p.marked = x
	}
	alive := p.live.alive
	for _, a := range p.liveArcs(y) {
		exw, ok := p.markedEdge(x, a.w)
		if !ok || !alive.Get(a.e) || !alive.Get(exw) {
			continue
		}
		if x == int32(u) {
			fn(a.w, exw, a.e)
		} else {
			fn(a.w, a.e, exw)
		}
	}
}

// liveArcs returns v's stored arcs, first dropping the dead ones if they are
// at least half of them.
func (p *Peel) liveArcs(v int32) []arc {
	lo := p.live.base.off[v]
	if dead := p.dead[v]; dead > 0 && 2*dead >= p.end[v]-lo {
		kept := lo
		for _, a := range p.arcs[lo:p.end[v]] {
			if p.live.alive.Get(a.e) {
				p.arcs[kept] = a
				kept++
			}
		}
		p.end[v], p.dead[v] = kept, 0
	}
	return p.arcs[lo:p.end[v]]
}
