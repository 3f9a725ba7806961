package steiner

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/graph"
	"repro/internal/trussindex"
)

// Tree is a Steiner tree connecting a set of terminals.
type Tree struct {
	// Terminals are the query vertices the tree connects.
	Terminals []int
	// Vertices is the sorted vertex set of the tree (terminals included).
	Vertices []int
	// Edges are the tree edges.
	Edges []graph.EdgeKey
	// MinTruss is the minimum edge trussness in the tree; for a single-
	// vertex tree it is the vertex trussness of the terminal.
	MinTruss int32
	// Weight is the total truss distance across the tree's MST edges.
	Weight float64
}

// ErrDisconnected is returned when the terminals do not share a connected
// component.
var ErrDisconnected = errors.New("steiner: terminals are not connected")

// Build computes a KMB-style 2-approximate Steiner tree for the terminals q
// under the truss-distance metric with penalty gamma:
//
//  1. build the complete distance graph over terminals using truss distance,
//  2. take its minimum spanning tree,
//  3. replace each MST edge by the realizing shortest path in G,
//  4. take a spanning tree of the union and prune non-terminal leaves.
//
// With gamma = 0 this is a plain hop-count Steiner approximation.
func Build(ix *trussindex.Index, q []int, gamma float64) (*Tree, error) {
	ws := ix.AcquireWorkspace()
	defer ws.Release()
	return BuildW(ix, q, gamma, ws)
}

// BuildW is Build running on an explicit workspace of ix, so a query
// pipeline that already holds one (e.g. LCTC) does not round-trip the pool.
func BuildW(ix *trussindex.Index, q []int, gamma float64, ws *trussindex.Workspace) (*Tree, error) {
	if len(q) == 0 {
		return nil, errors.New("steiner: no terminals")
	}
	uniq := dedupe(q)
	g := ix.Graph()
	for _, v := range uniq {
		if v < 0 || v >= g.N() {
			return nil, fmt.Errorf("steiner: terminal %d out of range", v)
		}
	}
	if len(uniq) == 1 {
		v := uniq[0]
		return &Tree{
			Terminals: uniq,
			Vertices:  []int{v},
			MinTruss:  ix.VertexTruss(v),
		}, nil
	}
	metric := NewMetric(ix, gamma)
	dist, thr, err := metric.pairDistances(uniq, ws)
	if err != nil {
		return nil, err
	}
	return metric.treeFromPairs(uniq, dist, thr, ws)
}

// treeFromPairs runs steps 2-4 of Build on the r×r (row-major, symmetric)
// terminal-pair truss distances dist and their realizing thresholds thr.
func (m *Metric) treeFromPairs(uniq []int, dist []float64, thr []int32, ws *trussindex.Workspace) (*Tree, error) {
	r := len(uniq)
	// Prim's MST over the complete terminal graph.
	inTree := make([]bool, r)
	best := make([]float64, r)
	bestFrom := make([]int, r)
	inTree[0] = true
	for j := 1; j < r; j++ {
		best[j] = dist[j]
	}
	type mstEdge struct{ from, to int }
	mst := make([]mstEdge, 0, r-1)
	totalWeight := 0.0
	for len(mst) < r-1 {
		pick, pickD := -1, Inf
		for j := 0; j < r; j++ {
			if !inTree[j] && best[j] < pickD {
				pick, pickD = j, best[j]
			}
		}
		if pick < 0 {
			return nil, ErrDisconnected
		}
		inTree[pick] = true
		mst = append(mst, mstEdge{bestFrom[pick], pick})
		totalWeight += pickD
		for j := 0; j < r; j++ {
			if !inTree[j] && dist[pick*r+j] < best[j] {
				best[j] = dist[pick*r+j]
				bestFrom[j] = pick
			}
		}
	}
	// Expand MST edges into actual paths at their realizing thresholds. The
	// paths consist of indexed-graph edges, so the union is a bitset overlay.
	union := ws.Shell()
	for _, e := range mst {
		if err := ws.Canceled(); err != nil {
			return nil, err
		}
		src, dst := uniq[e.from], uniq[e.to]
		path := m.pathAtThreshold(src, dst, thr[e.from*r+e.to], ws)
		if path == nil {
			// The threshold subgraph should contain the path by
			// construction; fall back to any connecting threshold.
			path = m.pathAtThreshold(src, dst, 2, ws)
		}
		if path == nil {
			return nil, ErrDisconnected
		}
		for i := 0; i+1 < len(path); i++ {
			union.AddEdge(path[i], path[i+1])
		}
	}
	for _, v := range uniq {
		union.EnsureVertex(v)
	}
	return treeFromUnion(m.ix, union, uniq, totalWeight, ws)
}

// treeFromUnion extracts a BFS spanning tree of the union subgraph and
// repeatedly prunes non-terminal leaves. union must be a workspace shell of
// the indexed graph; the returned Tree holds fresh copies of everything.
func treeFromUnion(ix *trussindex.Index, union *graph.Mutable, terminals []int, weight float64, ws *trussindex.Workspace) (*Tree, error) {
	termEpoch := ws.StampB.Next()
	for _, v := range terminals {
		ws.StampB.Mark[v] = termEpoch
	}
	// BFS spanning tree from the first terminal, carrying base edge IDs so
	// tree edges revive bits without per-edge lookups.
	root := terminals[0]
	tree := ws.Shell()
	tree.EnsureVertex(root)
	seen := ws.StampA
	seen.Next()
	seen.Set(int32(root))
	queue := ws.QueueA[:0]
	queue = append(queue, int32(root))
	for head := 0; head < len(queue); head++ {
		v := int(queue[head])
		union.ForEachIncidentEdge(v, func(e int32, u int) {
			if seen.Visit(int32(u)) {
				tree.AddEdgeByID(e)
				queue = append(queue, int32(u))
			}
		})
	}
	ws.QueueA = queue
	for _, v := range terminals {
		if !tree.Present(v) {
			return nil, ErrDisconnected
		}
	}
	// Prune non-terminal leaves until fixpoint: seed the candidate queue
	// with the tree's touched vertices, then chase each deletion's
	// neighbor, so pruning costs O(tree), not passes over Vertices().
	cand := ws.QueueB[:0]
	for _, vq := range tree.TouchedVertices() {
		cand = append(cand, vq)
	}
	for head := 0; head < len(cand); head++ {
		v := int(cand[head])
		if !tree.Present(v) || tree.Degree(v) > 1 || ws.StampB.Mark[v] == termEpoch {
			continue
		}
		next := -1
		tree.ForEachIncidentEdge(v, func(_ int32, u int) { next = u })
		tree.DeleteVertex(v)
		if next >= 0 {
			cand = append(cand, int32(next))
		}
	}
	ws.QueueB = cand
	// Materialize the result (fresh storage: the shells are reused by the
	// next query).
	var (
		edges    []graph.EdgeKey
		minTruss = int32(math.MaxInt32)
	)
	tree.ForEachTouchedLiveEdge(func(e int32, _, _ int) {
		edges = append(edges, ix.Graph().EdgeKeyOf(e))
		if t := ix.EdgeTrussByID(e); t < minTruss {
			minTruss = t
		}
	})
	slices.Sort(edges)
	if len(edges) == 0 {
		minTruss = ix.VertexTruss(terminals[0])
	}
	verts := make([]int, 0, len(edges)+1)
	for _, vq := range tree.TouchedVertices() {
		if tree.Present(int(vq)) {
			verts = append(verts, int(vq))
		}
	}
	slices.Sort(verts)
	// Touched-vertex lists can repeat a vertex that was deleted and
	// re-added, so dedupe after sorting.
	verts = slices.Compact(verts)
	return &Tree{
		Terminals: append([]int(nil), terminals...),
		Vertices:  verts,
		Edges:     edges,
		MinTruss:  minTruss,
		Weight:    weight,
	}, nil
}

// dedupe returns the distinct vertices of q in ascending order.
func dedupe(q []int) []int {
	out := slices.Clone(q)
	slices.Sort(out)
	return slices.Compact(out)
}
