package graph

import "math/bits"

// Mutable is a destructively editable subgraph of a base Graph. It shares
// the base graph's vertex ID space and CSR adjacency: the edge set is
// tracked as an edge-alive bitset over the base's dense edge IDs, so
// Clone, DeleteEdge and the k-truss maintenance cascade (Algorithm 3 of the
// paper) are allocation-free on the steady state and per-edge quantities can
// live in flat arrays indexed by base edge ID.
//
// Every edge of a Mutable is an edge of its base graph: AddEdge ignores a
// pair the base graph does not hold. A caller that needs foreign edges
// builds a new base graph holding them.
type Mutable struct {
	base    *Graph
	alive   Bitset  // bit e set iff base edge e is present
	deg     []int32 // live degree
	present []bool
	n       int // number of present vertices
	aliveM  int // live base edges
	// live, on a base graph with bit rows, is this overlay's own copy of
	// them (same layout): bit x of row u is set iff the base edge (u, x) is
	// alive, and w the words per row. Empty otherwise. w is the overlay's
	// own: a Compact rebuilt in place changes the base's row length under an
	// overlay that has yet to be Reset.
	live []uint64
	w    int
}

func newOverlay(g *Graph) *Mutable {
	mu := &Mutable{
		base:    g,
		alive:   NewBitset(g.M()),
		deg:     make([]int32, g.N()),
		present: make([]bool, g.N()),
	}
	if r := g.rows; r != nil {
		mu.live, mu.w = make([]uint64, len(r.bits)), r.w
	}
	return mu
}

// grown returns s with length n, reusing its storage when it can. Elements
// past the old length are whatever the storage held (zero, for the callers
// here, which clear before they shrink).
func grown[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Reset empties mu — no vertices present, no edges alive — and binds it to
// g, reusing mu's storage. It is how a pooled overlay follows a Compact
// graph that is rebuilt in place with a different size.
func (mu *Mutable) Reset(g *Graph) {
	clear(mu.alive)
	clear(mu.deg)
	clear(mu.present)
	clear(mu.live)
	mu.n, mu.aliveM = 0, 0
	mu.base = g
	mu.alive = grown(mu.alive, (g.M()+63)/64)
	mu.deg = grown(mu.deg, g.N())
	mu.present = grown(mu.present, g.N())
	if r := g.rows; r != nil {
		mu.live, mu.w = grown(mu.live, len(r.bits)), r.w
	} else {
		mu.live = mu.live[:0]
	}
}

// Fill makes mu its whole base graph: every vertex present, every edge
// alive.
func (mu *Mutable) Fill() {
	g := mu.base
	for v := range mu.present {
		mu.present[v] = true
		mu.deg[v] = int32(g.Degree(v))
	}
	mu.n = g.N()
	mu.alive.SetAll(g.M())
	mu.aliveM = g.M()
	if r := g.rows; r != nil {
		copy(mu.live, r.bits)
	}
}

// setRowBits and clearRowBits record the base edge (u, v) in the live rows.
func (mu *Mutable) setRowBits(u, v int) {
	w := mu.w
	mu.live[u*w+v>>6] |= 1 << (uint(v) & 63)
	mu.live[v*w+u>>6] |= 1 << (uint(u) & 63)
}

func (mu *Mutable) clearRowBits(u, v int) {
	w := mu.w
	mu.live[u*w+v>>6] &^= 1 << (uint(v) & 63)
	mu.live[v*w+u>>6] &^= 1 << (uint(u) & 63)
}

// NewMutable builds a Mutable containing the induced subgraph of g on the
// given vertices. If vertices is nil, the whole graph is included.
func NewMutable(g *Graph, vertices []int) *Mutable {
	mu := newOverlay(g)
	if vertices == nil {
		mu.Fill()
		return mu
	}
	for _, v := range vertices {
		if v >= 0 && v < g.N() && !mu.present[v] {
			mu.present[v] = true
			mu.n++
		}
	}
	for e := int32(0); e < int32(g.M()); e++ {
		u, v := g.EdgeEndpoints(e)
		if mu.present[u] && mu.present[v] {
			mu.alive.Set(e)
			mu.aliveM++
			mu.deg[u]++
			mu.deg[v]++
			if len(mu.live) > 0 {
				mu.setRowBits(u, v)
			}
		}
	}
	return mu
}

// NewMutableShell returns an empty Mutable over the ID and edge-ID space of
// g: no vertices present, no edges alive. AddEdge on an edge of g revives
// its bit in O(log deg); use this (rather than NewMutableFromEdges) when
// assembling a subgraph out of base-graph edges, e.g. LCTC's candidate
// k-trusses.
func NewMutableShell(g *Graph) *Mutable { return newOverlay(g) }

// NewMutableFromEdges builds a Mutable over an ID space of size n containing
// exactly the given edges (and their endpoints). The edges become the
// Mutable's base graph.
func NewMutableFromEdges(n int, edges []EdgeKey) *Mutable {
	b := NewBuilder(n, len(edges))
	if n > 0 {
		b.EnsureVertex(n - 1)
	}
	for _, k := range edges {
		u, v := k.Endpoints()
		b.AddEdge(u, v)
	}
	mu := newOverlay(b.Build())
	g := mu.base
	mu.alive.SetAll(g.M())
	mu.aliveM = g.M()
	for v := 0; v < g.N(); v++ {
		d := int32(g.Degree(v))
		mu.deg[v] = d
		if d > 0 {
			mu.present[v] = true
			mu.n++
		}
	}
	return mu
}

// Base returns the immutable base graph whose edge-ID space indexes this
// Mutable's per-edge arrays.
func (mu *Mutable) Base() *Graph { return mu.base }

// Clone returns a deep copy. The immutable base graph is shared.
func (mu *Mutable) Clone() *Mutable {
	return &Mutable{
		base:    mu.base,
		alive:   mu.alive.Clone(),
		deg:     append([]int32(nil), mu.deg...),
		present: append([]bool(nil), mu.present...),
		live:    append([]uint64(nil), mu.live...),
		w:       mu.w,
		n:       mu.n,
		aliveM:  mu.aliveM,
	}
}

// NumIDs implements Adjacency.
func (mu *Mutable) NumIDs() int { return len(mu.present) }

// Present implements Adjacency.
func (mu *Mutable) Present(v int) bool {
	return v >= 0 && v < len(mu.present) && mu.present[v]
}

// ForEachNeighbor implements Adjacency.
func (mu *Mutable) ForEachNeighbor(v int, fn func(u int)) {
	nb := mu.base.Neighbors(v)
	ids := mu.base.NeighborEdgeIDs(v)
	for i, w := range nb {
		if mu.alive.Get(ids[i]) {
			fn(int(w))
		}
	}
}

// ForEachIncidentEdge calls fn(e, w) for every live base edge (v, w), with e
// the base edge ID.
func (mu *Mutable) ForEachIncidentEdge(v int, fn func(e int32, w int)) {
	nb := mu.base.Neighbors(v)
	ids := mu.base.NeighborEdgeIDs(v)
	for i, w := range nb {
		if mu.alive.Get(ids[i]) {
			fn(ids[i], int(w))
		}
	}
}

// ForEachLiveEdge calls fn(e, u, v) with u < v for every live base edge, in
// ascending edge-ID order.
func (mu *Mutable) ForEachLiveEdge(fn func(e int32, u, v int)) {
	mu.alive.ForEach(func(e int32) {
		u, v := mu.base.EdgeEndpoints(e)
		fn(e, u, v)
	})
}

// EdgeAlive reports whether base edge e is present.
func (mu *Mutable) EdgeAlive(e int32) bool { return mu.alive.Get(e) }

// N returns the number of present vertices.
func (mu *Mutable) N() int { return mu.n }

// M returns the number of edges.
func (mu *Mutable) M() int { return mu.aliveM }

// Degree returns the degree of v (0 if absent).
func (mu *Mutable) Degree(v int) int { return int(mu.deg[v]) }

// HasEdge reports whether edge (u, v) exists.
func (mu *Mutable) HasEdge(u, v int) bool {
	if u < 0 || v < 0 || u >= len(mu.present) || v >= len(mu.present) {
		return false
	}
	e := mu.base.EdgeID(u, v)
	return e >= 0 && mu.alive.Get(e)
}

// AddEdge revives the base edge (u, v), adding endpoints as needed. Pairs
// the base graph does not hold (self-loops included) and out-of-range
// endpoints are ignored. Reports whether the edge was newly added.
func (mu *Mutable) AddEdge(u, v int) bool {
	if u < 0 || v < 0 || u >= len(mu.present) || v >= len(mu.present) {
		return false
	}
	e := mu.base.EdgeID(u, v)
	return e >= 0 && mu.AddEdgeByID(e)
}

// AddEdgeByID revives base edge e (a no-op if already alive), marking its
// endpoints present. Reports whether the edge was newly added.
func (mu *Mutable) AddEdgeByID(e int32) bool {
	if mu.alive.Get(e) {
		return false
	}
	mu.alive.Set(e)
	mu.aliveM++
	u, v := mu.base.EdgeEndpoints(e)
	mu.addVertex(u)
	mu.addVertex(v)
	mu.deg[u]++
	mu.deg[v]++
	if len(mu.live) > 0 {
		mu.setRowBits(u, v)
	}
	return true
}

// EnsureVertex makes v present, isolated if it has no edges yet.
func (mu *Mutable) EnsureVertex(v int) {
	if v >= 0 && v < len(mu.present) {
		mu.addVertex(v)
	}
}

func (mu *Mutable) addVertex(v int) {
	if !mu.present[v] {
		mu.present[v] = true
		mu.n++
	}
}

// DeleteEdge removes the edge (u, v) if present. Endpoints remain present
// even if isolated. Reports whether an edge was removed.
func (mu *Mutable) DeleteEdge(u, v int) bool {
	if u < 0 || v < 0 || u >= len(mu.present) || v >= len(mu.present) {
		return false
	}
	e := mu.base.EdgeID(u, v)
	return e >= 0 && mu.DeleteEdgeByID(e)
}

// DeleteEdgeByID kills base edge e. Reports whether it was alive.
func (mu *Mutable) DeleteEdgeByID(e int32) bool {
	if !mu.alive.Get(e) {
		return false
	}
	mu.alive.Clear(e)
	mu.aliveM--
	u, v := mu.base.EdgeEndpoints(e)
	mu.deg[u]--
	mu.deg[v]--
	if len(mu.live) > 0 {
		mu.clearRowBits(u, v)
	}
	return true
}

// DeleteVertex removes v and all its incident edges.
func (mu *Mutable) DeleteVertex(v int) {
	if v < 0 || v >= len(mu.present) || !mu.present[v] {
		return
	}
	nb := mu.base.Neighbors(v)
	ids := mu.base.NeighborEdgeIDs(v)
	for i, w := range nb {
		if mu.alive.Get(ids[i]) {
			mu.alive.Clear(ids[i])
			mu.aliveM--
			mu.deg[w]--
			if len(mu.live) > 0 {
				mu.clearRowBits(v, int(w))
			}
		}
	}
	mu.deg[v] = 0
	mu.present[v] = false
	mu.n--
}

// Vertices returns the sorted list of present vertices.
func (mu *Mutable) Vertices() []int {
	vs := make([]int, 0, mu.n)
	for v, p := range mu.present {
		if p {
			vs = append(vs, v)
		}
	}
	return vs
}

// EdgeKeys returns all edges as packed keys in ascending order.
func (mu *Mutable) EdgeKeys() []EdgeKey {
	keys := make([]EdgeKey, 0, mu.M())
	mu.alive.ForEach(func(e int32) { keys = append(keys, mu.base.EdgeKeyOf(e)) })
	return keys
}

// CommonNeighbors calls fn for every vertex w adjacent to both u and v.
func (mu *Mutable) CommonNeighbors(u, v int, fn func(w int)) {
	if u < 0 || v < 0 || u >= len(mu.present) || v >= len(mu.present) {
		return
	}
	mu.commonNeighborsMerged(u, v, func(w, _, _ int32) { fn(int(w)) })
}

// CommonNeighborsEdges calls fn(w, euw, evw) for every live triangle through
// the live or dead base edge (u, v), with euw/evw the base edge IDs of the
// wings.
func (mu *Mutable) CommonNeighborsEdges(u, v int, fn func(w, euw, evw int32)) {
	mu.commonNeighborsMerged(u, v, fn)
}

// commonNeighborsMerged is Graph.ForEachCommonNeighborEdge specialized with
// the alive check inlined; the duplication is deliberate — this is the
// hottest loop in the peeling paths and an extra closure hop per
// intersection hit is measurable. Keep the twin in graph.go in sync.
func (mu *Mutable) commonNeighborsMerged(u, v int, fn func(w, euw, evw int32)) {
	g := mu.base
	if len(mu.live) > 0 {
		// The live rows hold live edges only: every set bit of the AND is a
		// live triangle, and the static rows turn it into the wing edge IDs.
		w := mu.w
		ru, rv := mu.live[u*w:(u+1)*w], mu.live[v*w:(v+1)*w]
		for i, word := range ru {
			for word &= rv[i]; word != 0; word &= word - 1 {
				x := int32(i<<6 + bits.TrailingZeros64(word))
				fn(x, g.rowEdge(u, x), g.rowEdge(v, x))
			}
		}
		return
	}
	ou, ov := g.off[u], g.off[v]
	au, av := g.nbr[ou:g.off[u+1]], g.nbr[ov:g.off[v+1]]
	i, j := 0, 0
	for i < len(au) && j < len(av) {
		switch {
		case au[i] < av[j]:
			i++
		case au[i] > av[j]:
			j++
		default:
			euw, evw := g.aeid[ou+int32(i)], g.aeid[ov+int32(j)]
			if mu.alive.Get(euw) && mu.alive.Get(evw) {
				fn(au[i], euw, evw)
			}
			i++
			j++
		}
	}
}

// CountCommonNeighbors returns |N(u) ∩ N(v)|, i.e. the support of (u, v).
func (mu *Mutable) CountCommonNeighbors(u, v int) int {
	c := 0
	mu.CommonNeighbors(u, v, func(int) { c++ })
	return c
}

// Freeze converts the current state into an immutable Graph over the same
// vertex ID space.
func (mu *Mutable) Freeze() *Graph {
	b := NewBuilder(len(mu.present), mu.M())
	b.EnsureVertex(len(mu.present) - 1)
	mu.alive.ForEach(func(e int32) {
		u, v := mu.base.EdgeEndpoints(e)
		b.AddEdge(u, v)
	})
	return b.Build()
}
