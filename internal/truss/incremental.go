package truss

import (
	"slices"

	"repro/internal/graph"
)

// Incremental maintains the exact truss decomposition of a live graph under
// streaming edge updates, densely: the live graph is an edge-alive overlay
// of an immutable base graph, labels live in a flat []int32 indexed by base
// edge IDs, and both update cascades run over reusable queues and bitsets,
// so the steady state does no hashing and allocates only when a cascade
// outgrows its scratch.
//
// The algorithms are the incremental ones of Huang et al. (SIGMOD 2014),
// resting on the local characterization of trussness: the labels τ are the
// greatest pointwise fixed point of
//
//	τ(f) = max k such that f has >= k-2 triangles whose other two edges
//	       both carry labels >= k,
//
// so relaxing labels downward from any pointwise upper bound converges to
// the exact decomposition. A deletion leaves the old labels of the surviving
// edges as upper bounds and cascades only through edges that actually drop.
// An insertion can raise labels only within the same-level triangle closure
// of the new edge's triangles, each by at most one: those candidates are
// bumped, the new edge gets its support-based upper bound, and everything is
// relaxed back down — a localized re-decomposition of the affected shell.
//
// An Incremental is not safe for concurrent use; the serve.Manager confines
// one to its single writer goroutine and publishes immutable snapshots.
type Incremental struct {
	mu  *graph.Mutable
	tau []int32 // τ by base edge ID; 0 for dead edges

	// cascade scratch: the relax queue with its membership bitset, the
	// closure worklist with its membership bitset, and the sorted
	// triangle-minimum buffer of consistentLevel.
	queue     []int32
	inQueue   graph.Bitset
	closure   []int32
	inClosure graph.Bitset
	mins      []int32
}

// NewIncremental decomposes g (with the parallel level-synchronous peel on
// large graphs — this is the serving layer's cold-build and full-rebuild
// entry point) and wraps it for incremental maintenance, starting with every
// edge alive.
func NewIncremental(g *graph.Graph) *Incremental {
	d := DecomposeParallel(g)
	return ResumeIncremental(graph.NewMutable(g, nil), d.Truss)
}

// ResumeIncremental wraps an existing live state: tau must hold the exact
// trussness of every live edge of mu, indexed by base edge IDs (entries of
// dead edges are ignored and overwritten). The caller hands over ownership
// of both.
func ResumeIncremental(mu *graph.Mutable, tau []int32) *Incremental {
	if len(tau) != mu.Base().M() {
		panic("truss: ResumeIncremental labels must cover the base edge-ID space")
	}
	m := mu.Base().M()
	return &Incremental{
		mu:        mu,
		tau:       tau,
		inQueue:   graph.NewBitset(m),
		inClosure: graph.NewBitset(m),
	}
}

// Graph exposes the live graph (treat as read-only).
func (inc *Incremental) Graph() *graph.Mutable { return inc.mu }

// EdgeTau returns τ of base edge e in the live graph, or 0 if e is dead.
func (inc *Incremental) EdgeTau(e int32) int32 {
	if !inc.mu.EdgeAlive(e) {
		return 0
	}
	return inc.tau[e]
}

// DeleteEdge removes (u, v), relaxing affected labels. Reports whether an
// edge was removed.
func (inc *Incremental) DeleteEdge(u, v int) bool {
	e := inc.mu.Base().EdgeID(u, v)
	if e < 0 {
		return false
	}
	return inc.DeleteEdgeByID(e)
}

// DeleteEdgeByID removes base edge e, relaxing affected labels. Reports
// whether the edge was alive.
func (inc *Incremental) DeleteEdgeByID(e int32) bool {
	if !inc.mu.EdgeAlive(e) {
		return false
	}
	u, v := inc.mu.Base().EdgeEndpoints(e)
	// The surviving wings of e's triangles lose a triangle each; their old
	// labels stay upper bounds. Seed them before the deletion hides the
	// triangles. A wing with τ > τ(e) never counted this triangle at its own
	// level (the triangle's level is capped by τ(e)), so it cannot drop —
	// skip it.
	te := inc.tau[e]
	queue := inc.queue[:0]
	inc.mu.CommonNeighborsEdges(u, v, func(_, euw, evw int32) {
		if inc.tau[euw] <= te && !inc.inQueue.Get(euw) {
			inc.inQueue.Set(euw)
			queue = append(queue, euw)
		}
		if inc.tau[evw] <= te && !inc.inQueue.Get(evw) {
			inc.inQueue.Set(evw)
			queue = append(queue, evw)
		}
	})
	inc.mu.DeleteEdgeByID(e)
	inc.tau[e] = 0
	inc.queue = queue
	inc.relaxDown()
	return true
}

// InsertEdge revives the base edge (u, v), raising affected labels. Reports
// whether the edge was newly added. Edges outside the base edge-ID space
// cannot be represented and report false; the serving layer buffers those
// and rebases.
func (inc *Incremental) InsertEdge(u, v int) bool {
	e := inc.mu.Base().EdgeID(u, v)
	if e < 0 {
		return false
	}
	return inc.InsertEdgeByID(e)
}

// InsertEdgeByID revives dead base edge e, re-decomposing the affected
// shell. Reports whether the edge was newly added.
func (inc *Incremental) InsertEdgeByID(e int32) bool {
	if e < 0 || int(e) >= inc.mu.Base().M() || inc.mu.EdgeAlive(e) {
		return false
	}
	inc.mu.AddEdgeByID(e)
	inc.tau[e] = 0 // stale label from a previous life; keeps e out of the closure
	u, v := inc.mu.Base().EdgeEndpoints(e)
	// Affected shell: the wings of e's new triangles, closed under
	// same-level triangle connectivity (a rise of f can enable a partner g
	// to rise only when τ(g) = τ(f), per the insertion theorem). Bump the
	// shell to its upper bound (+1), give e its support-based upper bound,
	// then relax everything back down.
	//
	// Prune: τ_new(e) <= support(e)+2, and an edge f can gain a counted
	// triangle only through one whose level exceeds τ(f) — every new
	// triangle contains e — so only edges with τ(f) < support(e)+2 can
	// rise. This keeps a low-support insert in a sparse region from
	// crawling the (potentially huge) same-level component. One triangle
	// enumeration collects the wings and the support; the prune filters in
	// place once ub is known.
	seeds := inc.closure[:0]
	inc.mu.CommonNeighborsEdges(u, v, func(_, euw, evw int32) {
		seeds = append(seeds, euw, evw)
	})
	ub := int32(len(seeds)/2) + 2
	kept := seeds[:0]
	for _, f := range seeds {
		if inc.tau[f] < ub {
			kept = append(kept, f)
		}
	}
	inc.closure = kept
	candidates := inc.sameLevelClosure(ub)
	queue := inc.queue[:0]
	for _, f := range candidates {
		inc.tau[f]++
		if !inc.inQueue.Get(f) {
			inc.inQueue.Set(f)
			queue = append(queue, f)
		}
	}
	inc.tau[e] = inc.consistentLevel(u, v, ub)
	if !inc.inQueue.Get(e) {
		inc.inQueue.Set(e)
		queue = append(queue, e)
	}
	inc.queue = queue
	inc.relaxDown()
	return true
}

// sameLevelClosure expands the seed edges currently stored in inc.closure
// through triangle adjacency restricted to partners with equal labels below
// ub (labels >= ub cannot rise, see InsertEdgeByID). The just-inserted edge
// carries the impossible label 0, so it can never join. The result aliases
// inc.closure and is valid until the next cascade.
func (inc *Incremental) sameLevelClosure(ub int32) []int32 {
	out := inc.closure[:0]
	for _, s := range inc.closure {
		if !inc.inClosure.Get(s) {
			inc.inClosure.Set(s)
			out = append(out, s)
		}
	}
	base := inc.mu.Base()
	for head := 0; head < len(out); head++ {
		f := out[head]
		level := inc.tau[f]
		fu, fv := base.EdgeEndpoints(f)
		inc.mu.CommonNeighborsEdges(fu, fv, func(_, e1, e2 int32) {
			if inc.tau[e1] == level && level < ub && !inc.inClosure.Get(e1) {
				inc.inClosure.Set(e1)
				out = append(out, e1)
			}
			if inc.tau[e2] == level && level < ub && !inc.inClosure.Get(e2) {
				inc.inClosure.Set(e2)
				out = append(out, e2)
			}
		})
	}
	for _, f := range out {
		inc.inClosure.Clear(f)
	}
	inc.closure = out
	return out
}

// consistentLevel returns the largest k <= cap such that the live edge
// (u, v) has at least k-2 triangles whose other two edges both carry labels
// >= k (and k >= 2).
func (inc *Incremental) consistentLevel(u, v int, cap int32) int32 {
	mins := inc.mins[:0]
	inc.mu.CommonNeighborsEdges(u, v, func(_, euw, evw int32) {
		a := inc.tau[euw]
		if b := inc.tau[evw]; b < a {
			a = b
		}
		mins = append(mins, a)
	})
	inc.mins = mins
	// Level k needs the (k-2)-largest min to be >= k. Sort ascending with
	// the allocation-free slices.Sort (this runs for every queue entry of
	// every cascade — no reflection-based sort.Slice here) and index the
	// descending rank i as mins[len-1-i].
	slices.Sort(mins)
	n := int32(len(mins))
	hi := n + 2
	if hi > cap {
		hi = cap
	}
	for k := hi; k > 2; k-- {
		if mins[n-k+2] >= k {
			return k
		}
	}
	return 2
}

// relaxDown drains inc.queue, lowering any label that violates local
// consistency and enqueueing the triangle partners that might have counted
// the dropped edge. Labels only decrease, so this terminates at the exact
// decomposition provided the starting labels are pointwise upper bounds.
func (inc *Incremental) relaxDown() {
	base := inc.mu.Base()
	queue := inc.queue
	for head := 0; head < len(queue); head++ {
		f := queue[head]
		inc.inQueue.Clear(f)
		if !inc.mu.EdgeAlive(f) {
			continue
		}
		old := inc.tau[f]
		u, v := base.EdgeEndpoints(f)
		h := inc.consistentLevel(u, v, old)
		if h >= old {
			continue
		}
		inc.tau[f] = h
		// Partners with labels in (h, old] may have counted f at their
		// level; recheck them.
		inc.mu.CommonNeighborsEdges(u, v, func(_, e1, e2 int32) {
			if t := inc.tau[e1]; t > h && t <= old && !inc.inQueue.Get(e1) {
				inc.inQueue.Set(e1)
				queue = append(queue, e1)
			}
			if t := inc.tau[e2]; t > h && t <= old && !inc.inQueue.Get(e2) {
				inc.inQueue.Set(e2)
				queue = append(queue, e2)
			}
		})
	}
	inc.queue = queue[:0]
}

// Snapshot freezes the live graph into an immutable Graph and returns its
// decomposition. The returned arrays are freshly allocated — the caller may
// hand them to a trussindex build while the Incremental keeps mutating.
// When the live graph still equals its base (nothing dead), the base is
// reused directly and only the labels are copied.
func (inc *Incremental) Snapshot() *Decomposition {
	base := inc.mu.Base()
	if inc.mu.M() == base.M() {
		d := &Decomposition{
			G:           base,
			Truss:       append([]int32(nil), inc.tau...),
			VertexTruss: make([]int32, base.N()),
		}
		d.finishVertexTruss()
		return d
	}
	g := inc.mu.Freeze()
	d := &Decomposition{
		G:           g,
		Truss:       make([]int32, g.M()),
		VertexTruss: make([]int32, g.N()),
	}
	// Freeze adds the live base edges in ascending ID order, and edge IDs
	// ascend with the endpoint pair, so frozen edge i is the i-th live one.
	i := 0
	inc.mu.ForEachLiveEdge(func(e int32, _, _ int) {
		d.Truss[i] = inc.tau[e]
		i++
	})
	d.finishVertexTruss()
	return d
}
