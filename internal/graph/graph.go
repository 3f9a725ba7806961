// Package graph provides the undirected simple-graph substrate used by the
// closest-truss-community algorithms: an immutable base graph with sorted
// CSR adjacency and dense edge IDs, a mutable overlay supporting destructive
// vertex/edge deletion, breadth-first traversals, triangle/support
// computation, exact diameters, induced subgraphs and edge-list I/O.
//
// Vertices are dense integers in [0, N). Edges are undirected and unweighted;
// self-loops and parallel edges are rejected at construction time. Every edge
// additionally carries a dense edge ID in [0, M), assigned in ascending
// (min, max) endpoint order, so per-edge quantities (supports, trussness,
// deletion stamps) live in flat []int32 arrays instead of hash maps — the
// layout the hot decomposition and peeling loops are written against.
package graph

import (
	"fmt"
	"slices"
	"sort"
)

// Graph is an immutable undirected simple graph in CSR form with sorted
// adjacency and dense edge IDs. The zero value is an empty graph. Build
// instances with a Builder.
type Graph struct {
	// off[v]..off[v+1] bounds v's slice of nbr/aeid.
	off []int32
	// nbr holds the concatenated, per-vertex-sorted neighbor lists (2M arcs).
	nbr []int32
	// aeid[i] is the edge ID of the arc stored at nbr[i].
	aeid []int32
	// edges[e] packs the endpoints of edge e; ascending, so edge IDs
	// enumerate edges in (min, max) lexicographic order.
	edges []EdgeKey
	// rows, when non-nil, is the graph's adjacency as a bit matrix. Only
	// Compact.Build attaches it, to small per-query graphs; the intersection
	// and BFS kernels of Graph and Mutable use it in place of merging
	// adjacency lists.
	rows *bitRows
}

// N returns the number of vertices.
func (g *Graph) N() int {
	if len(g.off) == 0 {
		return 0
	}
	return len(g.off) - 1
}

// M returns the number of edges.
func (g *Graph) M() int { return len(g.edges) }

// Degree returns the number of neighbors of v.
func (g *Graph) Degree(v int) int { return int(g.off[v+1] - g.off[v]) }

// MaxDegree returns the maximum vertex degree, or 0 for an empty graph.
func (g *Graph) MaxDegree() int {
	max := 0
	for v := 0; v < g.N(); v++ {
		if d := g.Degree(v); d > max {
			max = d
		}
	}
	return max
}

// Neighbors returns the sorted neighbor list of v. The returned slice is
// shared with the graph and must not be modified.
func (g *Graph) Neighbors(v int) []int32 { return g.nbr[g.off[v]:g.off[v+1]] }

// NeighborEdgeIDs returns the edge IDs parallel to Neighbors(v):
// NeighborEdgeIDs(v)[i] is the ID of edge (v, Neighbors(v)[i]). Shared; do
// not modify.
func (g *Graph) NeighborEdgeIDs(v int) []int32 { return g.aeid[g.off[v]:g.off[v+1]] }

// HasEdge reports whether the edge (u, v) exists.
func (g *Graph) HasEdge(u, v int) bool { return g.EdgeID(u, v) >= 0 }

// EdgeID returns the dense edge ID of (u, v), or -1 if the edge does not
// exist (including out-of-range or equal endpoints). It binary-searches the
// shorter of the two adjacency lists, or reads the bit rows of a graph that
// has them.
func (g *Graph) EdgeID(u, v int) int32 {
	if u < 0 || v < 0 || u >= g.N() || v >= g.N() || u == v {
		return -1
	}
	if r := g.rows; r != nil {
		if r.row(u)[v>>6]&(1<<(uint(v)&63)) == 0 {
			return -1
		}
		return g.rowEdge(u, int32(v))
	}
	// Search the shorter list.
	if g.Degree(u) > g.Degree(v) {
		u, v = v, u
	}
	lo, hi := g.off[u], g.off[u+1]
	nb := g.nbr[lo:hi]
	i := sort.Search(len(nb), func(i int) bool { return nb[i] >= int32(v) })
	if i < len(nb) && nb[i] == int32(v) {
		return g.aeid[lo+int32(i)]
	}
	return -1
}

// EdgeEndpoints returns the endpoints of edge e with u < v.
func (g *Graph) EdgeEndpoints(e int32) (u, v int) { return g.edges[e].Endpoints() }

// EdgeKeyOf returns the packed key of edge e.
func (g *Graph) EdgeKeyOf(e int32) EdgeKey { return g.edges[e] }

// ForEachEdge calls fn once per edge with u < v, in edge-ID (ascending key)
// order.
func (g *Graph) ForEachEdge(fn func(u, v int)) {
	for _, k := range g.edges {
		u, v := k.Endpoints()
		fn(u, v)
	}
}

// EdgeKeys returns all edges as packed keys, in ascending order. The slice
// is a copy and may be modified.
func (g *Graph) EdgeKeys() []EdgeKey {
	return append([]EdgeKey(nil), g.edges...)
}

// ForEachCommonNeighborEdge calls fn(w, euw, evw) for every common neighbor
// w of u and v, where euw and evw are the edge IDs of (u,w) and (v,w). It
// merge-intersects the two sorted adjacency lists in O(deg(u)+deg(v)).
func (g *Graph) ForEachCommonNeighborEdge(u, v int, fn func(w, euw, evw int32)) {
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
			fn(au[i], g.aeid[ou+int32(i)], g.aeid[ov+int32(j)])
			i++
			j++
		}
	}
}

// NumIDs implements Adjacency.
func (g *Graph) NumIDs() int { return g.N() }

// Present implements Adjacency; every vertex of an immutable graph is present.
func (g *Graph) Present(v int) bool { return v >= 0 && v < g.N() }

// ForEachNeighbor implements Adjacency.
func (g *Graph) ForEachNeighbor(v int, fn func(u int)) {
	for _, w := range g.Neighbors(v) {
		fn(int(w))
	}
}

// EdgeKey packs an undirected edge into a single comparable value with the
// smaller endpoint in the high 32 bits, so keys sort lexicographically by
// (min, max).
type EdgeKey uint64

// Key returns the EdgeKey for the undirected edge (u, v).
func Key(u, v int) EdgeKey {
	if u > v {
		u, v = v, u
	}
	return EdgeKey(uint64(uint32(u))<<32 | uint64(uint32(v)))
}

// Endpoints returns the two endpoints of the key with u < v.
func (k EdgeKey) Endpoints() (u, v int) {
	return int(uint32(k >> 32)), int(uint32(k))
}

// String renders the key as "(u,v)".
func (k EdgeKey) String() string {
	u, v := k.Endpoints()
	return fmt.Sprintf("(%d,%d)", u, v)
}

// Builder accumulates edges and produces an immutable Graph. Duplicate edges
// are merged; self-loops are rejected.
type Builder struct {
	keys []EdgeKey
	n    int
}

// NewBuilder returns a Builder with capacity hints for n vertices and m edges.
func NewBuilder(n, m int) *Builder {
	return &Builder{keys: make([]EdgeKey, 0, m), n: n}
}

// EnsureVertex grows the vertex ID space to include v (useful for declaring
// isolated vertices).
func (b *Builder) EnsureVertex(v int) {
	if v+1 > b.n {
		b.n = v + 1
	}
}

// AddEdge records the undirected edge (u, v). Self-loops are ignored.
func (b *Builder) AddEdge(u, v int) {
	if u == v || u < 0 || v < 0 {
		return
	}
	b.EnsureVertex(u)
	b.EnsureVertex(v)
	b.keys = append(b.keys, Key(u, v))
}

// Build produces the immutable Graph. The builder may be reused afterwards.
func (b *Builder) Build() *Graph {
	slices.Sort(b.keys)
	deg := make([]int32, b.n)
	m := 0
	var prev EdgeKey = ^EdgeKey(0)
	for _, k := range b.keys {
		if k == prev {
			continue
		}
		prev = k
		u, v := k.Endpoints()
		deg[u]++
		deg[v]++
		m++
	}
	g := &Graph{
		off:   make([]int32, b.n+1),
		nbr:   make([]int32, 2*m),
		aeid:  make([]int32, 2*m),
		edges: make([]EdgeKey, 0, m),
	}
	for v := 0; v < b.n; v++ {
		g.off[v+1] = g.off[v] + deg[v]
	}
	// cur[v] is the next free slot of v's adjacency range. Iterating the
	// sorted unique keys appends each vertex's neighbors in ascending order
	// (first the smaller endpoints a < v of edges (a,v), then the larger
	// endpoints of edges (v,b)), so no per-vertex sort is needed.
	cur := make([]int32, b.n)
	copy(cur, g.off[:b.n])
	prev = ^EdgeKey(0)
	for _, k := range b.keys {
		if k == prev {
			continue
		}
		prev = k
		e := int32(len(g.edges))
		g.edges = append(g.edges, k)
		u, v := k.Endpoints()
		g.nbr[cur[u]], g.aeid[cur[u]] = int32(v), e
		cur[u]++
		g.nbr[cur[v]], g.aeid[cur[v]] = int32(u), e
		cur[v]++
	}
	return g
}

// FromEdges builds a graph directly from an edge list.
func FromEdges(n int, edges [][2]int) *Graph {
	b := NewBuilder(n, len(edges))
	if n > 0 {
		b.EnsureVertex(n - 1)
	}
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	return b.Build()
}

// Adjacency is the traversal interface shared by Graph and Mutable so that
// BFS, diameter and connectivity routines work on both.
type Adjacency interface {
	// NumIDs returns the size of the vertex ID space (IDs are < NumIDs).
	NumIDs() int
	// Present reports whether vertex v currently belongs to the graph.
	Present(v int) bool
	// ForEachNeighbor calls fn for every present neighbor of v.
	ForEachNeighbor(v int, fn func(u int))
}
