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
// sorted vertex list plus one bit per forward arc (v, w > v) of the index's
// graph out of each listed vertex, laid out vertex after vertex in list
// order. Every edge of the index's graph is the forward arc of exactly one
// vertex, so the bits never number more than its edge count m, and on an
// answer next to Q they number far fewer (~2 KB a cached dblp answer, with
// the vertex list). Subgraph rebuilds an overlay from them on demand.
type Community struct {
	// Algorithm names the producing algorithm ("Basic", "BD", "LCTC", ...).
	Algorithm string
	// K is the trussness of the community.
	K int32
	// Query holds the query vertices.
	Query []int

	vertices  []int
	edges     graph.Bitset // over the vertices' forward arcs in base; see forwardArcs
	m         int
	queryDist int
	base      *graph.Graph
}

// handBack fills a caller-allocated Community with a paper algorithm's
// answer: the component of x.Q[0] in best, an overlay of x's compact graph,
// plus any query vertex outside it, read off in local IDs and stored in
// base's, the index's graph that x was cut from. Relabelling preserves
// order, so ascending local IDs give the sorted vertex list through x.Vert,
// and a local edge's smaller endpoint is its smaller endpoint in base too.
// The scan that lists the vertices lays out their forward arcs: local
// vertex l gets bits ValB[l] on, its first forward edge in base is ValC[l].
// A query vertex outside the component takes its place in the layout with
// its bits clear. dist(H, Q) is the largest eccentricity of a query vertex,
// from one BFS on best per distinct query vertex — a BFS inside the
// component never sees best's other fragments — or -1 when a query vertex
// is outside it.
func handBack(c *Community, algo string, k int32, q []int, best *graph.Mutable, x *trussindex.Expansion, base *graph.Graph, ws *trussindex.Workspace) {
	in, dist, at, first := ws.StampA, ws.ValA, ws.ValB, ws.ValC
	comp := graph.BFSMarked(best, x.Q[0], dist, in, ws.QueueA)
	ws.QueueA = comp
	qd := dist[comp[len(comp)-1]]
	n := len(comp)
	for _, v := range x.Q {
		if in.Visit(int32(v)) {
			dist[v] = -1 // listed, but no edge of the answer
			qd = -1
			n++
		}
	}
	vertices := make([]int, 0, n)
	bits := int32(0)
	for l, v := range x.Vert {
		if !in.Marked(int32(l)) {
			continue
		}
		vertices = append(vertices, int(v))
		f, d := forwardArcs(base, int(v))
		at[l], first[l] = bits, f
		bits += d
		if len(vertices) == n {
			break
		}
	}
	edges := graph.NewBitset(int(bits))
	m := 0
	best.ForEachLiveEdge(func(e int32, u, _ int) {
		if in.Marked(int32(u)) && dist[u] >= 0 {
			edges.Set(at[u] + x.Edge[e] - first[u])
			m++
		}
	})
	for i := 1; i < len(x.Q) && qd >= 0; i++ {
		v := x.Q[i]
		if slices.Contains(x.Q[:i], v) {
			continue
		}
		reach := graph.BFSMarked(best, v, dist, in, ws.QueueA)
		ws.QueueA = reach
		if far := dist[reach[len(reach)-1]]; far > qd {
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

// forwardArcs returns the ID of the first edge (v, w > v) of g and how many
// such forward arcs v has. Edge IDs ascend with the (min, max) endpoint
// pair, so they are the consecutive IDs first..first+count-1.
func forwardArcs(g *graph.Graph, v int) (first, count int32) {
	nbrs := g.Neighbors(v)
	i, _ := slices.BinarySearch(nbrs, int32(v))
	if i == len(nbrs) {
		return 0, 0
	}
	return g.NeighborEdgeIDs(v)[i], int32(len(nbrs) - i)
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
	bit := int32(0)
	for _, v := range c.vertices {
		sub.EnsureVertex(v)
		first, d := forwardArcs(c.base, v)
		for i := int32(0); i < d; i++ {
			if c.edges.Get(bit + i) {
				sub.AddEdgeByID(first + i)
			}
		}
		bit += d
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
