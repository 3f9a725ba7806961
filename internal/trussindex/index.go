// Package trussindex implements the compact truss index of Section 4.3 of
// the paper and the FindG0 procedure (Algorithm 2) that retrieves the
// maximal connected k-truss containing a query with the largest k in
// O(|E(G0)|) time.
//
// The index is a true CSR structure: one flat arc array per attribute
// (neighbor, trussness, base edge ID) with a shared offset table, each
// vertex's run sorted by descending edge trussness (the paper's "level
// marks"), plus the vertex trussness and a dense edge→trussness array
// indexed by the base graph's edge IDs.
//
// Beside it the index keeps a truss-level tree, a Kruskal reconstruction
// tree of the edges in descending trussness, built with the index and never
// serialized. ConnectLevel reads from it the largest k at which two vertices
// share a connected k-truss component in O(#distinct τ) steps, so FindG0
// learns k from the tree and then runs one BFS to build G0.
package trussindex

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/truss"
)

// ErrNoCommunity is returned when the query vertices are not all contained
// in any single connected k-truss for k >= 2.
var ErrNoCommunity = errors.New("trussindex: no connected k-truss contains the query vertices")

// Index is the simple truss index: trussness-sorted CSR adjacency plus
// vertex trussness and a dense edge-trussness array indexed by the graph's
// edge IDs. An Index is immutable after construction and safe for
// concurrent queries; per-query scratch lives in pooled Workspaces.
type Index struct {
	g *graph.Graph
	// off[v]..off[v+1] bounds v's run in the flat arc arrays below. The runs
	// coincide with the base graph's CSR runs (same degrees), but each run is
	// re-sorted by descending τ(v,u), ties by ascending neighbor ID.
	off []int32
	// nbr[i] is the neighbor of the arc at i; nbrTruss[i] = τ of that edge;
	// nbrEID[i] = the base graph's dense edge ID of that edge.
	nbr      []int32
	nbrTruss []int32
	nbrEID   []int32
	// vertexTruss[v] = τ(v); maxTruss = τ̄(∅).
	vertexTruss []int32
	maxTruss    int32
	// edgeTruss[e] = τ of the edge with ID e in g.
	edgeTruss []int32
	// thresholds caches the distinct trussness values, descending.
	thresholds []int32
	// tree is the truss-level tree (tree.go): nodes 0..n-1 are the vertices.
	tree []treeNode

	// free lists the released workspaces of this index. A plain list, not a
	// sync.Pool: a Pool that has been used stays registered with the runtime
	// for two more collections, and being embedded here it would pin a
	// retired index — and through it that epoch's whole graph — for as long,
	// which under frequent publishes is most of the heap. The list's length
	// is bounded by the largest number of queries ever in flight at once.
	freeMu sync.Mutex
	free   []*Workspace
}

// Build constructs the index for g, running a truss decomposition first.
// The decomposition is the level-synchronous parallel peel for graphs above
// truss.ParallelThreshold edges (the serial bucket queue below it). It is
// not faster than the serial truss.Decompose at any worker count measured;
// it stays only until that peel is deleted.
func Build(g *graph.Graph) *Index {
	return BuildFromDecomposition(g, truss.DecomposeParallel(g))
}

// BuildFromDecomposition constructs the index from a precomputed
// decomposition of g.
func BuildFromDecomposition(g *graph.Graph, d *truss.Decomposition) *Index {
	ix := &Index{
		g:           g,
		vertexTruss: d.VertexTruss,
		maxTruss:    d.MaxTruss,
	}
	if d.G == g {
		ix.edgeTruss = d.Truss
	} else {
		// d describes a structurally identical graph with its own edge-ID
		// space (e.g. the same live graph frozen twice). Both graphs assign
		// edge IDs in ascending (min, max) key order, so when the edge sets
		// match the ID spaces coincide and one dense pass suffices; per-edge
		// key lookups are only the fallback for a foreign decomposition whose
		// edge set diverged.
		ix.edgeTruss = make([]int32, g.M())
		identical := d.G.M() == g.M()
		if identical {
			for e := int32(0); e < int32(g.M()); e++ {
				if g.EdgeKeyOf(e) != d.G.EdgeKeyOf(e) {
					identical = false
					break
				}
			}
		}
		if identical {
			copy(ix.edgeTruss, d.Truss)
		} else {
			for e := int32(0); e < int32(g.M()); e++ {
				ix.edgeTruss[e] = d.EdgeTrussKey(g.EdgeKeyOf(e))
			}
		}
	}
	ix.buildArcs()
	ix.thresholds = ix.computeThresholds()
	ix.buildTree()
	return ix
}

// buildArcs fills off/nbr/nbrTruss/nbrEID from the base CSR and edgeTruss: a
// per-vertex counting sort by trussness (descending, ties ascending neighbor
// — the base runs are already neighbor-sorted and the sort is stable), O(m)
// overall instead of the comparison sort's O(m log Δ). From
// parallelBuildThreshold arcs up, GOMAXPROCS goroutines take 256-vertex
// blocks from a shared counter.
func (ix *Index) buildArcs() {
	g := ix.g
	n := g.N()
	ix.off = make([]int32, n+1)
	for v := 0; v < n; v++ {
		ix.off[v+1] = ix.off[v] + int32(g.Degree(v))
	}
	arcs := int(ix.off[n])
	ix.nbr = make([]int32, arcs)
	ix.nbrTruss = make([]int32, arcs)
	ix.nbrEID = make([]int32, arcs)
	if arcs == 0 {
		return
	}
	if arcs < parallelBuildThreshold {
		ix.buildArcRange(0, n, make([]int32, ix.maxTruss+1))
		return
	}
	workers := runtime.GOMAXPROCS(0)
	const block = 256
	nblocks := (n + block - 1) / block
	if workers > nblocks {
		workers = nblocks
	}
	var next int64 = -1
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cnt := make([]int32, ix.maxTruss+1)
			for {
				bi := int(atomic.AddInt64(&next, 1))
				if bi >= nblocks {
					return
				}
				lo := bi * block
				hi := lo + block
				if hi > n {
					hi = n
				}
				ix.buildArcRange(lo, hi, cnt)
			}
		}()
	}
	wg.Wait()
}

// parallelBuildThreshold is the arc count below which the goroutine fan-out
// of buildArcs costs more than it saves.
const parallelBuildThreshold = 1 << 15

// buildArcRange counting-sorts the arc runs of vertices [lo, hi). cnt is a
// scratch array of length maxTruss+1; only entries the vertex's trussness
// range touches are used and re-zeroed, so a worker reuses one allocation.
func (ix *Index) buildArcRange(lo, hi int, cnt []int32) {
	g := ix.g
	for v := lo; v < hi; v++ {
		nbrs := g.Neighbors(v)
		if len(nbrs) == 0 {
			continue
		}
		eids := g.NeighborEdgeIDs(v)
		mn, mx := int32(len(cnt)), int32(0)
		for _, e := range eids {
			t := ix.edgeTruss[e]
			cnt[t]++
			if t < mn {
				mn = t
			}
			if t > mx {
				mx = t
			}
		}
		// Turn counts into bucket start positions, highest trussness first.
		s := ix.off[v]
		for t := mx; t >= mn; t-- {
			c := cnt[t]
			cnt[t] = s
			s += c
		}
		for i, u := range nbrs {
			e := eids[i]
			t := ix.edgeTruss[e]
			d := cnt[t]
			cnt[t]++
			ix.nbr[d] = u
			ix.nbrTruss[d] = t
			ix.nbrEID[d] = e
		}
		for t := mx; t >= mn; t-- {
			cnt[t] = 0
		}
	}
}

// arcRange returns the bounds of v's run in the flat arc arrays.
func (ix *Index) arcRange(v int) (lo, hi int32) { return ix.off[v], ix.off[v+1] }

// Graph returns the indexed graph.
func (ix *Index) Graph() *graph.Graph { return ix.g }

// MaxTruss returns τ̄(∅), the maximum edge trussness in the graph.
func (ix *Index) MaxTruss() int32 { return ix.maxTruss }

// VertexTruss returns τ(v), or 0 for an isolated or out-of-range vertex.
func (ix *Index) VertexTruss(v int) int32 {
	if v < 0 || v >= len(ix.vertexTruss) {
		return 0
	}
	return ix.vertexTruss[v]
}

// EdgeTruss returns τ(u,v), or 0 if the edge does not exist.
func (ix *Index) EdgeTruss(u, v int) int32 {
	e := ix.g.EdgeID(u, v)
	if e < 0 {
		return 0
	}
	return ix.edgeTruss[e]
}

// EdgeTrussByID returns τ of the edge with dense ID e in the indexed graph.
func (ix *Index) EdgeTrussByID(e int32) int32 { return ix.edgeTruss[e] }

// Decomposition reconstitutes a truss.Decomposition view of the index. The
// dense arrays are shared, not copied.
func (ix *Index) Decomposition() *truss.Decomposition {
	return &truss.Decomposition{
		G:           ix.g,
		Truss:       ix.edgeTruss,
		VertexTruss: ix.vertexTruss,
		MaxTruss:    ix.maxTruss,
	}
}

// NeighborsAtLeast returns the prefix of v's trussness-sorted adjacency with
// τ(v,u) >= k, as parallel neighbor and base-edge-ID slices. The slices are
// shared with the index and must not be modified. The prefix boundary is
// found by binary search on the descending trussness run.
func (ix *Index) NeighborsAtLeast(v int, k int32) (nbrs, eids []int32) {
	if v < 0 || v+1 >= len(ix.off) {
		return nil, nil
	}
	lo, hi := ix.off[v], ix.off[v+1]
	ts := ix.nbrTruss[lo:hi]
	end := sort.Search(len(ts), func(i int) bool { return ts[i] < k })
	return ix.nbr[lo : lo+int32(end)], ix.nbrEID[lo : lo+int32(end)]
}

// ForEachNeighborAtLeast calls fn for every neighbor u of v with
// τ(v,u) >= k. Thanks to the trussness-sorted adjacency this touches only
// the qualifying prefix.
func (ix *Index) ForEachNeighborAtLeast(v int, k int32, fn func(u int)) {
	if v < 0 || v+1 >= len(ix.off) {
		return
	}
	lo, hi := ix.off[v], ix.off[v+1]
	for i := lo; i < hi && ix.nbrTruss[i] >= k; i++ {
		fn(int(ix.nbr[i]))
	}
}

// Thresholds returns the distinct edge trussness values present in the
// graph, in descending order. The slice is a fresh copy.
func (ix *Index) Thresholds() []int32 {
	return append([]int32(nil), ix.thresholds...)
}

// ThresholdsShared returns the cached distinct trussness values, descending.
// The slice is shared with the index and must not be modified; it exists so
// per-query metric construction does not allocate.
func (ix *Index) ThresholdsShared() []int32 { return ix.thresholds }

func (ix *Index) computeThresholds() []int32 {
	if ix.maxTruss == 0 {
		return nil
	}
	seen := make([]bool, ix.maxTruss+1)
	for _, t := range ix.edgeTruss {
		if t >= 0 && t <= ix.maxTruss {
			seen[t] = true
		}
	}
	out := make([]int32, 0, len(seen))
	for t := ix.maxTruss; t >= 2; t-- {
		if seen[t] {
			out = append(out, t)
		}
	}
	return out
}

// FindG0W implements Algorithm 2: it returns G0, the connected component
// containing Q of the k-truss with the largest k that has one, built as the
// compact graph of the workspace's Expansion (valid until the workspace's
// next query), together with k. k comes from the truss-level tree: the
// smallest ConnectLevel of q[0] with each query vertex, which is at most
// min_q τ(q), the Lemma-1 bound. One FindKTrussW BFS then builds G0.
func (ix *Index) FindG0W(q []int, ws *Workspace) (*Expansion, int32, error) {
	if len(q) == 0 {
		return nil, 0, errors.New("trussindex: empty query")
	}
	for _, v := range q {
		if v < 0 || v >= ix.g.N() {
			return nil, 0, fmt.Errorf("trussindex: query vertex %d out of range", v)
		}
		if ix.vertexTruss[v] == 0 {
			return nil, 0, fmt.Errorf("%w: vertex %d has no edges", ErrNoCommunity, v)
		}
	}
	k := ix.vertexTruss[q[0]]
	for _, v := range q[1:] {
		k = min(k, ix.ConnectLevel(q[0], v))
	}
	if k < 2 {
		return nil, 0, ErrNoCommunity
	}
	return ix.FindKTrussW(q, k, ws)
}

// FindKTrussW returns the connected component containing Q of the maximal
// k-truss for the given fixed k (the Exp-5 fixed-trussness variant, and
// FindG0W's G0 once it knows k), built as the compact graph of the
// workspace's Expansion (valid until the workspace's next query) with Q set,
// together with k; or ErrNoCommunity if Q is not contained in one. One BFS
// collects q[0]'s component, so an unsatisfiable query fails having explored
// only that component and built nothing.
//
// Trussness is only defined for k >= 2 (every edge of a graph is in a
// 2-truss); requests below that are clamped to k = 2, so k <= 1 behaves
// exactly like k = 2 — in particular a query on an isolated vertex fails
// with ErrNoCommunity for every k instead of "succeeding" with an edgeless
// community at k <= τ(v) = 0. The returned k is the clamped one.
func (ix *Index) FindKTrussW(q []int, k int32, ws *Workspace) (*Expansion, int32, error) {
	if len(q) == 0 {
		return nil, 0, errors.New("trussindex: empty query")
	}
	if k < 2 {
		k = 2
	}
	for _, v := range q {
		if v < 0 || v >= ix.g.N() || ix.vertexTruss[v] < k {
			return nil, 0, fmt.Errorf("%w (k=%d)", ErrNoCommunity, k)
		}
	}
	seen := ws.StampA.Next()
	mark := ws.StampA.Mark
	mark[q[0]] = seen
	queue := ws.QueueA[:0]
	queue = append(queue, int32(q[0]))
	for head := 0; head < len(queue); head++ {
		if head&(cancelCheckInterval-1) == 0 {
			if err := ws.Canceled(); err != nil {
				ws.QueueA = queue
				return nil, 0, err
			}
		}
		nbrs, _ := ix.NeighborsAtLeast(int(queue[head]), k)
		for _, u := range nbrs {
			if mark[u] != seen {
				mark[u] = seen
				queue = append(queue, u)
			}
		}
	}
	ws.QueueA = queue
	for _, v := range q {
		if mark[v] != seen {
			return nil, 0, fmt.Errorf("%w (k=%d)", ErrNoCommunity, k)
		}
	}
	slices.Sort(queue)
	x := ws.Expansion()
	arcs := func(v int) ([]int32, []int32) { return ix.NeighborsAtLeast(v, k) }
	if err := x.Build(queue, ws.StampA, ws.ValA, arcs, ws.Canceled); err != nil {
		return nil, 0, err
	}
	x.SetQuery(q)
	return x, k, nil
}
