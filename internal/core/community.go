// Package core implements the paper's closest-truss-community search
// algorithms: the 2-approximate greedy Basic (Algorithm 1), the faster
// (2+ε)-approximate BulkDelete (Algorithm 4), and the local-exploration
// heuristic LCTC (Algorithm 5), plus the Truss baseline that returns G0
// without free-rider removal.
package core

import (
	"encoding/binary"
	"fmt"
	"slices"

	"repro/internal/graph"
	"repro/internal/truss"
	"repro/internal/trussindex"
)

// Community is the result of a community search: a connected k-truss
// subgraph H containing the query vertices. It is stored as its vertex set —
// the sorted vertex list gap-coded as uvarints, about a byte a vertex on an
// answer next to Q — plus its edge count, dist(H, Q), and the trussness
// threshold t of the graph H was peeled from. A maximal k-truss is fixed by
// its vertex set, so Subgraph re-derives the edges on demand from the
// index's graph and edge trussness. The Community holds those two, not the
// index: an index carries its workspace pool, which a cached Result from a
// retired epoch would otherwise pin.
type Community struct {
	// Algorithm names the producing algorithm ("Basic", "BD", "LCTC", ...).
	Algorithm string
	// K is the trussness of the community.
	K int32
	// Query holds the query vertices.
	Query []int

	verts     []byte // ascending vertex list: uvarint gaps, the first from 0
	n, m      int
	queryDist int
	t         int32        // every edge of H has trussness >= t in g
	g         *graph.Graph // the index's graph
	tau       []int32      // the index's edge trussness by g's edge IDs (shared)
}

// handBack fills a caller-allocated Community with a paper algorithm's
// answer H: the component of x.Q[0] in best, an overlay of x's compact
// graph, plus any query vertex outside it. Relabelling preserves order, so
// ascending local IDs give the sorted vertex list through x.Vert; it is
// gap-coded in two passes, one to size it and one to write it, so the answer
// holds no slack. A query vertex outside the component is listed and, as
// Subgraph re-derives it, isolated. t is the trussness threshold of the
// graph x was cut from (k for the G0-seeded algorithms, kt for LCTC's
// expansion); g and tau are the index's graph and edge trussness. dist(H, Q)
// is the largest eccentricity of a query vertex, from one BFS on best per
// distinct query vertex — a BFS inside the component never sees best's
// other fragments — or -1 when a query vertex is outside it.
func handBack(c *Community, algo string, k, t int32, q []int, best *graph.Mutable, x *trussindex.Expansion, g *graph.Graph, tau []int32, ws *trussindex.Workspace) {
	in, dist := ws.StampA, ws.ValA
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
	var buf [binary.MaxVarintLen64]byte
	size, prev, listed := 0, int32(0), 0
	for l := 0; listed < n; l++ {
		if in.Marked(int32(l)) {
			size += binary.PutUvarint(buf[:], uint64(x.Vert[l]-prev))
			prev = x.Vert[l]
			listed++
		}
	}
	verts := make([]byte, 0, size)
	prev = 0
	for l := 0; len(verts) < size; l++ {
		if in.Marked(int32(l)) {
			verts = binary.AppendUvarint(verts, uint64(x.Vert[l]-prev))
			prev = x.Vert[l]
		}
	}
	m := 0
	best.ForEachLiveEdge(func(_ int32, u, _ int) {
		if in.Marked(int32(u)) && dist[u] >= 0 {
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
		verts:     verts,
		n:         n,
		m:         m,
		queryDist: int(qd),
		t:         t,
		g:         g,
		tau:       tau,
	}
}

// N returns the number of vertices in the community.
func (c *Community) N() int { return c.n }

// M returns the number of edges in the community.
func (c *Community) M() int { return c.m }

// Vertices returns the sorted community vertex set, freshly decoded: the
// caller owns the slice.
func (c *Community) Vertices() []int {
	vs := make([]int, 0, c.n)
	v := 0
	for b := c.verts; len(b) > 0; {
		gap, w := binary.Uvarint(b)
		v += int(gap)
		vs = append(vs, v)
		b = b[w:]
	}
	return vs
}

// Contains reports whether v belongs to the community.
func (c *Community) Contains(v int) bool {
	u := 0
	for b := c.verts; len(b) > 0; {
		gap, w := binary.Uvarint(b)
		if u += int(gap); u >= v {
			return u == v
		}
		b = b[w:]
	}
	return false
}

// Subgraph returns the community as a freshly built overlay of the index's
// graph, isolated vertices included. Every call builds a new one, which the
// caller owns: a Result shared by concurrent readers (the serve layer's
// result cache hands one to every hit) hands each its own. It costs an
// overlay of the index's graph, so only Request.Verify, Diameter and
// callers outside the serving path build one.
//
// The edges are re-derived as the maximal K-truss of the subgraph that the
// vertices induce on the edges of trussness >= t. That is H: H is a
// component of the maximal K-truss of a graph G' on a vertex set S, where G'
// was peeled from the induced graph G_{τ≥t}[X] on the vertex set X of the
// expansion or G0 by deleting vertices; so every K-truss inside
// G_{τ≥t}[V(H)] lies in H, and H is one. Most answers already induce exactly
// their M edges and are returned as induced; only the others pay a peel.
func (c *Community) Subgraph() *graph.Mutable {
	sub := graph.NewMutableShell(c.g)
	vs := c.Vertices()
	for _, v := range vs {
		sub.EnsureVertex(v)
	}
	for _, v := range vs {
		nbrs, eids := c.g.Neighbors(v), c.g.NeighborEdgeIDs(v)
		i, _ := slices.BinarySearch(nbrs, int32(v))
		for j := i; j < len(nbrs); j++ {
			if sub.Present(int(nbrs[j])) && c.tau[eids[j]] >= c.t {
				sub.AddEdgeByID(eids[j])
			}
		}
	}
	if sub.M() != c.m {
		c.peelInduced(sub, vs)
	}
	return sub
}

// peelInduced deletes from sub, the graph that vs induces, every edge outside
// its maximal K-truss, leaving the vertices listed. The peel runs on a copy
// relabelled to 0..len(vs)-1, so the supports come from one triangle listing
// of the induced graph rather than from the index graph's adjacency.
// Relabelling preserves order, so local edge IDs follow sub's edge IDs.
func (c *Community) peelInduced(sub *graph.Mutable, vs []int) {
	b := graph.NewBuilder(len(vs), sub.M())
	ids := make([]int32, 0, sub.M())
	for lu, u := range vs {
		lw := lu
		sub.ForEachIncidentEdge(u, func(e int32, w int) {
			if w > u {
				i, _ := slices.BinarySearch(vs[lw+1:], w)
				lw += 1 + i
				b.AddEdge(lu, lw)
				ids = append(ids, e)
			}
		})
	}
	lg := b.Build()
	local := graph.NewMutable(lg, nil)
	truss.DropBelowSupport(local, graph.EdgeSupports(lg), c.K)
	for l, e := range ids {
		if !local.EdgeAlive(int32(l)) {
			sub.DeleteEdgeByID(e)
		}
	}
}

// QueryDist returns dist(H, Q), the graph query distance (Definition 3),
// or -1 if some community vertex cannot reach every query vertex.
func (c *Community) QueryDist() int { return c.queryDist }

// Density returns the edge density 2m/(n(n-1)).
func (c *Community) Density() float64 {
	n := c.n
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
	if c.n > parallelDiameterThreshold {
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
