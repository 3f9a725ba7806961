package graph

import (
	"math/bits"
	"sort"
)

// Mutable is a destructively editable subgraph of a base Graph. It shares
// the base graph's vertex ID space and CSR adjacency: the edge set is
// tracked as an edge-alive bitset over the base's dense edge IDs, so
// Clone, DeleteEdge and the k-truss maintenance cascade (Algorithm 3 of the
// paper) are allocation-free on the steady state and per-edge quantities can
// live in flat arrays indexed by base edge ID.
//
// Edges outside the base graph can still be added (AddEdge falls back to a
// small per-vertex overflow list). A Mutable without overflow edges is
// "overlay-pure"; the hot peeling paths (MutableEdgeSupports,
// truss.MaintainKTrussScratch) require purity and panic otherwise — every
// subgraph they are fed is built from base edges only.
type Mutable struct {
	base    *Graph
	alive   Bitset  // bit e set iff base edge e is present
	deg     []int32 // live degree (base + overflow)
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
	// overflow adjacency for edges outside the base graph; nil until first
	// foreign AddEdge. Unsorted, both directions mirrored.
	extra  [][]int32
	extraM int
	// Touched-state tracking for resettable shells (NewResettableShell):
	// touchedWords lists the alive-bitset words that have held a set bit
	// since the last reset (deduped via wordSeen, which is indexed by word),
	// and touchedVerts lists every vertex that became present. ResetShell
	// restores the empty state in O(touched) instead of O(n + m).
	tracked      bool
	touchedWords []int32
	wordSeen     Bitset
	touchedVerts []int32
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
// graph that is rebuilt in place with a different size; a resettable shell
// stays one, and is emptied in O(touched).
func (mu *Mutable) Reset(g *Graph) {
	if mu.tracked {
		mu.ResetShell()
	} else {
		clear(mu.alive)
		clear(mu.deg)
		clear(mu.present)
		clear(mu.live)
		mu.n, mu.aliveM, mu.extraM, mu.extra = 0, 0, 0, nil
	}
	mu.base = g
	mu.alive = grown(mu.alive, (g.M()+63)/64)
	mu.deg = grown(mu.deg, g.N())
	mu.present = grown(mu.present, g.N())
	if mu.tracked {
		mu.wordSeen = grown(mu.wordSeen, len(mu.alive))
	}
	if len(mu.extra) != g.N() {
		mu.extra = nil
	}
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
// assembling a subgraph out of base-graph edges, e.g. in FindG0.
func NewMutableShell(g *Graph) *Mutable { return newOverlay(g) }

// NewResettableShell returns an empty shell like NewMutableShell that
// additionally tracks which bitset words and vertices it touches, so
// ResetShell can restore the empty state in time proportional to the
// touched subgraph. This is the storage behind pooled query workspaces: one
// resettable shell serves an unbounded stream of queries without
// reallocating or scanning O(n + m) between them.
func NewResettableShell(g *Graph) *Mutable {
	mu := newOverlay(g)
	mu.tracked = true
	mu.wordSeen = NewBitset(len(mu.alive))
	return mu
}

// ResetShell empties a resettable shell (no vertices present, no edges
// alive) in O(touched). Panics if the Mutable was not created with
// NewResettableShell.
func (mu *Mutable) ResetShell() {
	if !mu.tracked {
		panic("graph: ResetShell requires a Mutable from NewResettableShell")
	}
	for _, wi := range mu.touchedWords {
		mu.alive[wi] = 0
		mu.wordSeen.Clear(wi)
	}
	mu.touchedWords = mu.touchedWords[:0]
	for _, v := range mu.touchedVerts {
		mu.present[v] = false
		mu.deg[v] = 0
		if mu.extra != nil {
			mu.extra[v] = mu.extra[v][:0]
		}
		if len(mu.live) > 0 {
			clear(mu.live[int(v)*mu.w : (int(v)+1)*mu.w])
		}
	}
	mu.touchedVerts = mu.touchedVerts[:0]
	mu.n = 0
	mu.aliveM = 0
	mu.extraM = 0
}

// ForEachTouchedLiveEdge calls fn(e, u, v) with u < v for every live base
// edge of a resettable shell, visiting only the bitset words the shell has
// touched since its last reset — O(touched), not O(m). Within a word edges
// come in ascending ID order; across words the order follows touch order.
func (mu *Mutable) ForEachTouchedLiveEdge(fn func(e int32, u, v int)) {
	if !mu.tracked {
		panic("graph: ForEachTouchedLiveEdge requires a Mutable from NewResettableShell")
	}
	for _, wi := range mu.touchedWords {
		word := mu.alive[wi]
		for word != 0 {
			t := bits.TrailingZeros64(word)
			word &^= 1 << uint(t)
			e := wi<<6 + int32(t)
			u, v := mu.base.EdgeEndpoints(e)
			fn(e, u, v)
		}
	}
}

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

// OverlayPure reports whether every edge of the Mutable is a base-graph edge
// (no overflow), i.e. whether dense edge-ID arrays fully describe it.
func (mu *Mutable) OverlayPure() bool { return mu.extraM == 0 }

func (mu *Mutable) requirePure(op string) {
	if mu.extraM > 0 {
		panic("graph: " + op + " requires an overlay-pure Mutable (no edges outside the base graph)")
	}
}

// Clone returns a deep copy. The immutable base graph is shared; a clone of
// a resettable shell is a plain (untracked) Mutable.
func (mu *Mutable) Clone() *Mutable {
	cp := &Mutable{
		base:    mu.base,
		alive:   mu.alive.Clone(),
		deg:     append([]int32(nil), mu.deg...),
		present: append([]bool(nil), mu.present...),
		live:    append([]uint64(nil), mu.live...),
		w:       mu.w,
		n:       mu.n,
		aliveM:  mu.aliveM,
		extraM:  mu.extraM,
	}
	if mu.extra != nil {
		cp.extra = make([][]int32, len(mu.extra))
		for v, nb := range mu.extra {
			if len(nb) > 0 {
				cp.extra[v] = append([]int32(nil), nb...)
			}
		}
	}
	return cp
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
	if mu.extra != nil {
		for _, w := range mu.extra[v] {
			fn(int(w))
		}
	}
}

// ForEachIncidentEdge calls fn(e, w) for every live base edge (v, w), with e
// the base edge ID. Requires overlay purity.
func (mu *Mutable) ForEachIncidentEdge(v int, fn func(e int32, w int)) {
	mu.requirePure("ForEachIncidentEdge")
	nb := mu.base.Neighbors(v)
	ids := mu.base.NeighborEdgeIDs(v)
	for i, w := range nb {
		if mu.alive.Get(ids[i]) {
			fn(ids[i], int(w))
		}
	}
}

// ForEachLiveEdge calls fn(e, u, v) with u < v for every live base edge, in
// ascending edge-ID order. Overflow edges are not visited; use EdgeKeys for
// the full edge set.
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
func (mu *Mutable) M() int { return mu.aliveM + mu.extraM }

// Degree returns the degree of v (0 if absent).
func (mu *Mutable) Degree(v int) int { return int(mu.deg[v]) }

func (mu *Mutable) extraIndex(u, v int) int {
	if mu.extra == nil {
		return -1
	}
	for i, w := range mu.extra[u] {
		if int(w) == v {
			return i
		}
	}
	return -1
}

// HasEdge reports whether edge (u, v) exists.
func (mu *Mutable) HasEdge(u, v int) bool {
	if u < 0 || v < 0 || u >= len(mu.present) || v >= len(mu.present) {
		return false
	}
	if e := mu.base.EdgeID(u, v); e >= 0 {
		return mu.alive.Get(e)
	}
	return mu.extraIndex(u, v) >= 0
}

// AddEdge inserts the edge (u, v), adding endpoints as needed. Self-loops
// and out-of-range endpoints are ignored. Reports whether the edge was newly
// added.
func (mu *Mutable) AddEdge(u, v int) bool {
	if u == v || u < 0 || v < 0 || u >= len(mu.present) || v >= len(mu.present) {
		return false
	}
	if e := mu.base.EdgeID(u, v); e >= 0 {
		return mu.AddEdgeByID(e)
	}
	if mu.extraIndex(u, v) >= 0 {
		return false
	}
	if mu.extra == nil {
		mu.extra = make([][]int32, len(mu.present))
	}
	mu.extra[u] = append(mu.extra[u], int32(v))
	mu.extra[v] = append(mu.extra[v], int32(u))
	mu.extraM++
	mu.addVertex(u)
	mu.addVertex(v)
	mu.deg[u]++
	mu.deg[v]++
	return true
}

// AddEdgeByID revives base edge e (a no-op if already alive), marking its
// endpoints present. Reports whether the edge was newly added.
func (mu *Mutable) AddEdgeByID(e int32) bool {
	if mu.alive.Get(e) {
		return false
	}
	if mu.tracked {
		if wi := e >> 6; !mu.wordSeen.Get(wi) {
			mu.wordSeen.Set(wi)
			mu.touchedWords = append(mu.touchedWords, wi)
		}
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
		if mu.tracked {
			mu.touchedVerts = append(mu.touchedVerts, int32(v))
		}
	}
}

// TouchedVertices returns the vertices a resettable shell has made present
// since its last reset, in touch order. Vertices deleted again remain
// listed (check Present); the slice is shared and valid until the next
// mutation or reset.
func (mu *Mutable) TouchedVertices() []int32 {
	if !mu.tracked {
		panic("graph: TouchedVertices requires a Mutable from NewResettableShell")
	}
	return mu.touchedVerts
}

// DeleteEdge removes the edge (u, v) if present. Endpoints remain present
// even if isolated. Reports whether an edge was removed.
func (mu *Mutable) DeleteEdge(u, v int) bool {
	if u < 0 || v < 0 || u >= len(mu.present) || v >= len(mu.present) {
		return false
	}
	if e := mu.base.EdgeID(u, v); e >= 0 {
		return mu.DeleteEdgeByID(e)
	}
	i := mu.extraIndex(u, v)
	if i < 0 {
		return false
	}
	mu.removeExtraAt(u, i)
	mu.removeExtraAt(v, mu.extraIndex(v, u))
	mu.extraM--
	mu.deg[u]--
	mu.deg[v]--
	return true
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

func (mu *Mutable) removeExtraAt(v, i int) {
	nb := mu.extra[v]
	nb[i] = nb[len(nb)-1]
	mu.extra[v] = nb[:len(nb)-1]
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
	if mu.extra != nil {
		for _, w := range mu.extra[v] {
			mu.removeExtraAt(int(w), mu.extraIndex(int(w), v))
			mu.extraM--
			mu.deg[w]--
		}
		mu.extra[v] = nil
	}
	mu.deg[v] = 0
	mu.present[v] = false
	mu.n--
}

// RemoveIsolated deletes every present vertex of degree zero that is not in
// keep, and returns how many were removed.
func (mu *Mutable) RemoveIsolated(keep map[int]bool) int {
	removed := 0
	for v := range mu.present {
		if mu.present[v] && mu.deg[v] == 0 && !keep[v] {
			mu.present[v] = false
			mu.n--
			removed++
		}
	}
	return removed
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
	if mu.extraM > 0 {
		for v, nb := range mu.extra {
			for _, w := range nb {
				if int(w) > v {
					keys = append(keys, Key(v, int(w)))
				}
			}
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	}
	return keys
}

// CommonNeighbors calls fn for every vertex w adjacent to both u and v. On
// an overlay-pure Mutable it merge-intersects the base's sorted adjacency
// lists; with overflow edges it falls back to probing from the
// smaller-degree endpoint.
func (mu *Mutable) CommonNeighbors(u, v int, fn func(w int)) {
	if u < 0 || v < 0 || u >= len(mu.present) || v >= len(mu.present) {
		return
	}
	if mu.extraM == 0 {
		mu.commonNeighborsMerged(u, v, func(w, _, _ int32) { fn(int(w)) })
		return
	}
	if mu.deg[u] > mu.deg[v] {
		u, v = v, u
	}
	mu.ForEachNeighbor(u, func(w int) {
		if w != v && mu.HasEdge(v, w) {
			fn(w)
		}
	})
}

// CommonNeighborsEdges calls fn(w, euw, evw) for every live triangle through
// the live or dead base edge (u, v), with euw/evw the base edge IDs of the
// wings. Requires overlay purity.
func (mu *Mutable) CommonNeighborsEdges(u, v int, fn func(w, euw, evw int32)) {
	mu.requirePure("CommonNeighborsEdges")
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
	if mu.extraM > 0 {
		for v, nb := range mu.extra {
			for _, w := range nb {
				if int(w) > v {
					b.AddEdge(v, int(w))
				}
			}
		}
	}
	return b.Build()
}
