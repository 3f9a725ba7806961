// Package core implements the paper's closest-truss-community search
// algorithms: the 2-approximate greedy Basic (Algorithm 1), the faster
// (2+ε)-approximate BulkDelete (Algorithm 4), and the local-exploration
// heuristic LCTC (Algorithm 5), plus the Truss baseline that returns G0
// without free-rider removal.
package core

import (
	"fmt"
	"sort"

	"repro/internal/graph"
	"repro/internal/trussindex"
)

// Community is the result of a community search: a connected k-truss
// subgraph containing the query vertices.
type Community struct {
	// Algorithm names the producing algorithm ("Basic", "BD", "LCTC", ...).
	Algorithm string
	// K is the trussness of the community.
	K int32
	// Query holds the query vertices.
	Query []int

	vertices  []int
	edgeCount int
	queryDist int
	sub       *graph.Mutable
}

// initCommunity fills a caller-allocated Community in place (Result embeds
// one by value, so the whole query answer is a single allocation). sub is an
// overlay in the ID space of ws's index.
func initCommunity(c *Community, algo string, sub *graph.Mutable, k int32, q []int, ws *trussindex.Workspace) {
	*c = Community{
		Algorithm: algo,
		K:         k,
		Query:     append([]int(nil), q...),
		vertices:  sub.Vertices(),
		edgeCount: sub.M(),
		sub:       sub,
		queryDist: queryDist(sub, q, ws),
	}
}

// queryDist returns dist(sub, q) — graph.GraphQueryDistance on the
// workspace's stamped BFS scratch — or -1 if some vertex of sub cannot reach
// every query vertex. A BFS that reaches all of sub ends on a furthest
// vertex.
func queryDist(sub *graph.Mutable, q []int, ws *trussindex.Workspace) int {
	d := int32(0)
	for _, src := range q {
		reach := graph.BFSMarked(sub, src, ws.ValA, ws.StampA, ws.QueueA)
		ws.QueueA = reach
		if len(reach) != sub.N() {
			return -1
		}
		if far := ws.ValA[reach[len(reach)-1]]; far > d {
			d = far
		}
	}
	return int(d)
}

// N returns the number of vertices in the community.
func (c *Community) N() int { return len(c.vertices) }

// M returns the number of edges in the community.
func (c *Community) M() int { return c.edgeCount }

// Vertices returns the sorted community vertex set (shared; do not modify).
func (c *Community) Vertices() []int { return c.vertices }

// Contains reports whether v belongs to the community.
func (c *Community) Contains(v int) bool {
	i := sort.SearchInts(c.vertices, v)
	return i < len(c.vertices) && c.vertices[i] == v
}

// Subgraph exposes the community subgraph. Treat it as read-only.
func (c *Community) Subgraph() *graph.Mutable { return c.sub }

// QueryDist returns dist(H, Q), the graph query distance (Definition 3),
// or -1 if some community vertex cannot reach every query vertex.
func (c *Community) QueryDist() int { return c.queryDist }

// Density returns the edge density 2m/(n(n-1)).
func (c *Community) Density() float64 {
	n := len(c.vertices)
	if n < 2 {
		return 0
	}
	return 2 * float64(c.edgeCount) / (float64(n) * float64(n-1))
}

// parallelDiameterThreshold is the community size beyond which the exact
// all-pairs BFS sweep is fanned out over multiple goroutines.
const parallelDiameterThreshold = 512

// Diameter returns the exact diameter of the community subgraph: an
// all-pairs BFS, parallel for large communities, run on every call. It is
// not memoised, because a Result may be shared by concurrent readers (the
// serve layer's result cache hands one to every hit).
func (c *Community) Diameter() int {
	var d int
	if len(c.vertices) > parallelDiameterThreshold {
		d, _ = graph.DiameterParallel(c.sub, 0)
	} else {
		d, _ = graph.Diameter(c.sub)
	}
	return d
}

// String summarizes the community.
func (c *Community) String() string {
	return fmt.Sprintf("%s: %d-truss community, %d nodes, %d edges, query dist %d, density %.3f",
		c.Algorithm, c.K, c.N(), c.M(), c.queryDist, c.Density())
}
