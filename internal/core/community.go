// Package core implements the paper's closest-truss-community search
// algorithms: the 2-approximate greedy Basic (Algorithm 1), the faster
// (2+ε)-approximate BulkDelete (Algorithm 4), and the local-exploration
// heuristic LCTC (Algorithm 5), plus the Truss baseline that returns G0
// without free-rider removal.
package core

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/graph"
	"repro/internal/trussindex"
)

// Community is the result of a community search: a connected k-truss
// subgraph containing the query vertices. It stores the subgraph as its
// sorted vertex list plus one bit per edge of the index's graph, so a
// retained answer costs the index's edge count in bits and no per-vertex
// array of the index; Subgraph rebuilds an overlay from them on demand.
type Community struct {
	// Algorithm names the producing algorithm ("Basic", "BD", "LCTC", ...).
	Algorithm string
	// K is the trussness of the community.
	K int32
	// Query holds the query vertices.
	Query []int

	vertices  []int
	edges     graph.Bitset // over base's edge IDs
	m         int
	queryDist int
	base      *graph.Graph
}

// handBack fills a caller-allocated Community with a paper algorithm's
// answer: the component of x.Q[0] in best, an overlay of x's compact graph,
// plus any query vertex outside it, read off in local IDs and stored in
// base's, the index's graph that x was cut from. Relabelling preserves
// order, so ascending local IDs give the sorted vertex list through x.Vert.
// dist(H, Q) is the largest eccentricity of a query vertex, from one BFS on
// best per distinct query vertex — a BFS inside the component never sees
// best's other fragments — or -1 when a query vertex is outside it.
func handBack(c *Community, algo string, k int32, q []int, best *graph.Mutable, x *trussindex.Expansion, base *graph.Graph, ws *trussindex.Workspace) {
	in := ws.StampA
	comp := graph.BFSMarked(best, x.Q[0], ws.ValA, in, ws.QueueA)
	ws.QueueA = comp
	qd := ws.ValA[comp[len(comp)-1]]
	edges := graph.NewBitset(base.M())
	m := 0
	best.ForEachLiveEdge(func(e int32, u, _ int) {
		if in.Marked(int32(u)) {
			edges.Set(x.Edge[e])
			m++
		}
	})
	n := len(comp)
	for _, v := range x.Q {
		if in.Visit(int32(v)) {
			qd = -1
			n++
		}
	}
	vertices := make([]int, 0, n)
	for l, v := range x.Vert {
		if in.Marked(int32(l)) {
			vertices = append(vertices, int(v))
		}
	}
	for i := 1; i < len(x.Q) && qd >= 0; i++ {
		v := x.Q[i]
		if slices.Contains(x.Q[:i], v) {
			continue
		}
		reach := graph.BFSMarked(best, v, ws.ValA, in, ws.QueueA)
		ws.QueueA = reach
		if far := ws.ValA[reach[len(reach)-1]]; far > qd {
			qd = far
		}
	}
	*c = Community{
		Algorithm: algo,
		K:         k,
		Query:     append([]int(nil), q...),
		vertices:  vertices,
		edges:     edges,
		m:         m,
		queryDist: int(qd),
		base:      base,
	}
}

// N returns the number of vertices in the community.
func (c *Community) N() int { return len(c.vertices) }

// M returns the number of edges in the community.
func (c *Community) M() int { return c.m }

// Vertices returns the sorted community vertex set (shared; do not modify).
func (c *Community) Vertices() []int { return c.vertices }

// Contains reports whether v belongs to the community.
func (c *Community) Contains(v int) bool {
	i := sort.SearchInts(c.vertices, v)
	return i < len(c.vertices) && c.vertices[i] == v
}

// Subgraph returns the community as a freshly built overlay of the index's
// graph, isolated vertices included. Every call builds a new one, which the
// caller owns: a Result shared by concurrent readers (the serve layer's
// result cache hands one to every hit) hands each its own. It costs an
// overlay of the index's graph, so only Request.Verify, Diameter and
// callers outside the serving path build one.
func (c *Community) Subgraph() *graph.Mutable {
	sub := graph.NewMutableShell(c.base)
	c.edges.ForEach(func(e int32) { sub.AddEdgeByID(e) })
	for _, v := range c.vertices {
		sub.EnsureVertex(v)
	}
	return sub
}

// QueryDist returns dist(H, Q), the graph query distance (Definition 3),
// or -1 if some community vertex cannot reach every query vertex.
func (c *Community) QueryDist() int { return c.queryDist }

// Density returns the edge density 2m/(n(n-1)).
func (c *Community) Density() float64 {
	n := len(c.vertices)
	if n < 2 {
		return 0
	}
	return 2 * float64(c.m) / (float64(n) * float64(n-1))
}

// parallelDiameterThreshold is the community size beyond which the exact
// all-pairs BFS sweep is fanned out over multiple goroutines.
const parallelDiameterThreshold = 512

// Diameter returns the exact diameter of the community subgraph: an
// all-pairs BFS over a fresh Subgraph, parallel for large communities, run
// on every call.
func (c *Community) Diameter() int {
	sub := c.Subgraph()
	var d int
	if len(c.vertices) > parallelDiameterThreshold {
		d, _ = graph.DiameterParallel(sub, 0)
	} else {
		d, _ = graph.Diameter(sub)
	}
	return d
}

// String summarizes the community.
func (c *Community) String() string {
	return fmt.Sprintf("%s: %d-truss community, %d nodes, %d edges, query dist %d, density %.3f",
		c.Algorithm, c.K, c.N(), c.M(), c.queryDist, c.Density())
}
