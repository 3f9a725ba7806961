package graph

import (
	"math/bits"
	"slices"
)

// maxRowVertices is the largest graph that Compact.Build gives bit rows. A
// row costs n/64 words to intersect against deg u + deg v steps for a merge
// of two adjacency lists, so on a sparse graph rows stop paying somewhere
// past a couple of thousand vertices; the paper's expansion budgets (Fig. 15)
// end at η = 2000. This is the only place the choice between the row kernels
// and the merge kernels is made: everything above asks the graph.
const maxRowVertices = 2048

// maxRowWords is the row length at maxRowVertices.
const maxRowWords = maxRowVertices / 64

// bitRows is the adjacency matrix of a small graph, one n-bit row per
// vertex, plus what turns a set bit back into an edge ID without a search:
// pre[u*w+i] counts u's neighbours below 64*i, so the arc (u, x) sits at
// offset pre[u*w + x>>6] + popcount(row word & bits below x) of u's CSR run.
// The rows are static (they describe the graph); an overlay of the graph
// keeps its own live copy that edge and vertex deletion clear.
type bitRows struct {
	w    int      // words per row
	bits []uint64 // n*w
	pre  []uint16 // n*w; a prefix count is at most maxRowVertices-1
}

// row returns the static row of u.
func (r *bitRows) row(u int) []uint64 { return r.bits[u*r.w : (u+1)*r.w] }

// rowEdge returns the ID of the edge (u, x) of a graph with rows; the edge
// must exist.
func (g *Graph) rowEdge(u int, x int32) int32 {
	r := g.rows
	i := u*r.w + int(x>>6)
	below := r.bits[i] & (1<<(uint(x)&63) - 1)
	return g.aeid[g.off[u]+int32(r.pre[i])+int32(bits.OnesCount64(below))]
}

// Compact is reusable storage for a small graph cut out of a large one: the
// subgraph on a chosen vertex set, relabelled to local vertex IDs 0..n-1 in
// ascending source-ID order. The relabelling preserves order, and edge IDs
// ascend with the (min, max) endpoint pair in both graphs, so local edges
// enumerate in source edge-ID order too: anything that breaks a tie by
// smallest ID decides the same way on either side. Build reuses every buffer,
// so a pooled Compact allocates only while it grows.
type Compact struct {
	// G is the relabelled graph, rebuilt in place by Build (overlays of &G
	// stay bound to it across builds; see Mutable.Reset). It carries bit
	// rows when it has at most maxRowVertices vertices.
	G Graph
	// Vert[l] is the source vertex of local vertex l; Edge[e] the source edge
	// ID of local edge e. Both ascend.
	Vert []int32
	Edge []int32

	rows bitRows
	cur  []int32
}

// Local returns the local ID of source vertex v, or -1 if v is not in the
// graph.
func (c *Compact) Local(v int) int {
	l, ok := slices.BinarySearch(c.Vert, int32(v))
	if !ok {
		return -1
	}
	return l
}

// Build makes c.G the graph on verts — ascending, distinct source vertices,
// exactly those member marks — whose edges are the arcs that arcs(v) offers
// (neighbours and their source edge IDs, in any order) with both endpoints in
// verts. The offer must be symmetric: (v, x) from v iff (x, v) from x. local
// is scratch over the source ID space; Build leaves local[verts[l]] = l. poll
// (may be nil) is asked every few thousand vertices and a non-nil return
// abandons the build with that error.
func (c *Compact) Build(verts []int32, member *Stamp, local []int32, arcs func(v int) (nbrs, eids []int32), poll func() error) error {
	n := len(verts)
	c.Vert = append(c.Vert[:0], verts...)
	for l, v := range verts {
		local[v] = int32(l)
	}
	g := &c.G
	g.off = grown(g.off, n+1)
	g.off[0] = 0
	for l, v := range verts {
		if poll != nil && l&4095 == 0 {
			if err := poll(); err != nil {
				return err
			}
		}
		nbrs, _ := arcs(int(v))
		d := int32(0)
		for _, x := range nbrs {
			if member.Marked(x) {
				d++
			}
		}
		g.off[l+1] = g.off[l] + d
	}
	arcCount := int(g.off[n])
	g.nbr = grown(g.nbr, arcCount)
	g.aeid = grown(g.aeid, arcCount)
	// Transpose: visiting sources in ascending order and appending each to
	// the rows of its neighbours leaves every row sorted. aeid holds source
	// edge IDs until the numbering pass below.
	c.cur = append(c.cur[:0], g.off[:n]...)
	cur := c.cur
	for l, v := range verts {
		if poll != nil && l&4095 == 0 {
			if err := poll(); err != nil {
				return err
			}
		}
		nbrs, eids := arcs(int(v))
		for i, x := range nbrs {
			if member.Marked(x) {
				slot := cur[local[x]]
				cur[local[x]] = slot + 1
				g.nbr[slot], g.aeid[slot] = int32(l), eids[i]
			}
		}
	}
	// Number the edges in ascending (min, max) order. A row lists the smaller
	// neighbours first, and each of them has already filed this edge's ID at
	// cur[u] by the time u's turn comes, so cur[u] is where u's own edges
	// start.
	m := arcCount / 2
	g.edges = g.edges[:0]
	c.Edge = c.Edge[:0]
	copy(cur, g.off[:n])
	for u := 0; u < n; u++ {
		for i := cur[u]; i < g.off[u+1]; i++ {
			x := g.nbr[i]
			e := int32(len(g.edges))
			g.edges = append(g.edges, Key(u, int(x)))
			c.Edge = append(c.Edge, g.aeid[i])
			g.aeid[i] = e
			g.aeid[cur[x]] = e
			cur[x]++
		}
	}
	if len(g.edges) != m {
		panic("graph: Compact.Build was offered asymmetric arcs")
	}
	g.rows = nil
	if n <= maxRowVertices {
		c.buildRows()
	}
	return nil
}

// buildRows fills the bit rows and prefix ranks of c.G and attaches them.
func (c *Compact) buildRows() {
	g, r := &c.G, &c.rows
	n := g.N()
	r.w = (n + 63) / 64
	if cap(r.bits) < n*r.w {
		r.bits = make([]uint64, n*r.w)
		r.pre = make([]uint16, n*r.w)
	} else {
		r.bits = r.bits[:n*r.w]
		r.pre = r.pre[:n*r.w]
		clear(r.bits)
	}
	for u := 0; u < n; u++ {
		row := r.row(u)
		for _, x := range g.Neighbors(u) {
			row[x>>6] |= 1 << (uint(x) & 63)
		}
		pre := r.pre[u*r.w : (u+1)*r.w]
		count := 0
		for i, word := range row {
			pre[i] = uint16(count)
			count += bits.OnesCount64(word)
		}
	}
	g.rows = r
}
