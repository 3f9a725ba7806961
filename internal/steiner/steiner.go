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
	// union of the paths is a sorted, deduplicated list of arcs v*n+u, both
	// directions, so v's union neighbours are one ascending run of it.
	n := m.ix.Graph().N()
	arcs := ws.Victims[:0]
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
			a, b := path[i], path[i+1]
			arcs = append(arcs, a*n+b, b*n+a)
		}
	}
	slices.Sort(arcs)
	arcs = slices.Compact(arcs)
	ws.Victims = arcs
	return treeFromUnion(m.ix, arcs, uniq, totalWeight, ws)
}

// treeFromUnion takes the BFS spanning tree of the path union from the
// first terminal, visiting each vertex's union neighbours in ascending
// order, and keeps of it the vertices whose BFS subtree holds a terminal:
// the tree that pruning non-terminal leaves to a fixpoint leaves. arcs is
// the union as sorted arcs v*n+u over the indexed graph's n vertices; the
// returned Tree holds fresh copies of everything.
func treeFromUnion(ix *trussindex.Index, arcs []int, terminals []int, weight float64, ws *trussindex.Workspace) (*Tree, error) {
	n := ix.Graph().N()
	root := terminals[0]
	// ValA under StampA is each reached vertex's BFS parent.
	seen, parent := ws.StampA, ws.ValA
	seen.Next()
	seen.Set(int32(root))
	queue := append(ws.QueueA[:0], int32(root))
	for head := 0; head < len(queue); head++ {
		v := int(queue[head])
		i, _ := slices.BinarySearch(arcs, v*n)
		for ; i < len(arcs) && arcs[i] < (v+1)*n; i++ {
			if u := int32(arcs[i] - v*n); seen.Visit(u) {
				parent[u] = int32(v)
				queue = append(queue, u)
			}
		}
	}
	ws.QueueA = queue
	keep := ws.StampB
	keep.Next()
	for _, v := range terminals {
		if !seen.Marked(int32(v)) {
			return nil, ErrDisconnected
		}
		keep.Set(int32(v))
	}
	// Backwards, the BFS order reaches a vertex after its whole subtree, so
	// one pass settles which vertices to keep; a kept vertex keeps its
	// parent.
	kept := 1 // the root, a terminal
	for i := len(queue) - 1; i > 0; i-- {
		if v := queue[i]; keep.Marked(v) {
			keep.Set(parent[v])
			kept++
		}
	}
	verts := make([]int, 0, kept)
	edges := make([]graph.EdgeKey, 0, kept-1)
	minTruss := int32(math.MaxInt32)
	for i, vq := range queue {
		if !keep.Marked(vq) {
			continue
		}
		v := int(vq)
		verts = append(verts, v)
		if i == 0 {
			continue
		}
		p := int(parent[v])
		edges = append(edges, graph.Key(p, v))
		minTruss = min(minTruss, ix.EdgeTruss(p, v))
	}
	if len(edges) == 0 {
		minTruss = ix.VertexTruss(root)
	}
	slices.Sort(verts)
	slices.Sort(edges)
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
