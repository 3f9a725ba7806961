package graph

import (
	"math/bits"
	"sort"
)

// EdgeSupports computes sup(e) = number of triangles containing e, for every
// edge of the immutable graph, with the support pass of a Peel. The result
// is indexed by dense edge ID.
func EdgeSupports(g *Graph) []int32 {
	var p Peel
	return p.supports(g, make([]int32, g.M()))
}

// TriangleCount returns the total number of triangles in g. Each triangle is
// counted once.
func TriangleCount(g *Graph) int64 {
	var total int64
	for _, s := range EdgeSupports(g) {
		total += int64(s)
	}
	return total / 3
}

// countCommonRows counts the common neighbours of two vertices of a graph
// with bit rows: the popcount of their rows ANDed.
func countCommonRows(a, b []uint64) int32 {
	c := 0
	for i, word := range a {
		c += bits.OnesCount64(word & b[i])
	}
	return int32(c)
}

// MutableEdgeSupports computes per-edge supports for the current state of a
// Mutable subgraph. The result is indexed by the base graph's edge IDs;
// entries of dead edges are zero.
func MutableEdgeSupports(mu *Mutable) []int32 {
	return MutableEdgeSupportsInto(mu, make([]int32, mu.base.M()))
}

// MutableEdgeSupportsInto is MutableEdgeSupports writing into a caller
// (typically workspace-pooled) buffer of length >= mu.Base().M(). Only the
// entries of live edges are written; entries of dead edges keep whatever
// stale values the buffer held, which the maintenance cascade never reads.
func MutableEdgeSupportsInto(mu *Mutable, sup []int32) []int32 {
	sup = sup[:mu.base.M()]
	if len(mu.live) > 0 {
		w := mu.w
		mu.ForEachLiveEdge(func(e int32, u, v int) {
			sup[e] = countCommonRows(mu.live[u*w:(u+1)*w], mu.live[v*w:(v+1)*w])
		})
		return sup
	}
	mu.ForEachLiveEdge(func(e int32, u, v int) {
		c := int32(0)
		mu.commonNeighborsMerged(u, v, func(_, _, _ int32) { c++ })
		sup[e] = c
	})
	return sup
}

// GlobalClusteringCoefficient returns 3*triangles / open+closed wedges,
// a standard cohesion statistic used when validating that the synthetic
// networks are triangle-rich like the paper's.
func GlobalClusteringCoefficient(g *Graph) float64 {
	var wedges int64
	for v := 0; v < g.N(); v++ {
		d := int64(g.Degree(v))
		wedges += d * (d - 1) / 2
	}
	if wedges == 0 {
		return 0
	}
	return 3 * float64(TriangleCount(g)) / float64(wedges)
}

// DegeneracyOrder returns a vertex ordering by iterative minimum-degree
// removal and the graph's degeneracy (max min-degree seen). The degeneracy
// upper-bounds the arboricity referenced in the paper's complexity analysis.
func DegeneracyOrder(g *Graph) (order []int, degeneracy int) {
	n := g.N()
	deg := make([]int, n)
	maxDeg := 0
	for v := 0; v < n; v++ {
		deg[v] = g.Degree(v)
		if deg[v] > maxDeg {
			maxDeg = deg[v]
		}
	}
	// Bucket queue keyed by current degree.
	buckets := make([][]int32, maxDeg+1)
	for v := 0; v < n; v++ {
		buckets[deg[v]] = append(buckets[deg[v]], int32(v))
	}
	removed := make([]bool, n)
	order = make([]int, 0, n)
	cur := 0
	for len(order) < n {
		if cur > maxDeg {
			break
		}
		if len(buckets[cur]) == 0 {
			cur++
			continue
		}
		v := int(buckets[cur][len(buckets[cur])-1])
		buckets[cur] = buckets[cur][:len(buckets[cur])-1]
		if removed[v] || deg[v] != cur {
			continue // stale bucket entry
		}
		removed[v] = true
		order = append(order, v)
		if cur > degeneracy {
			degeneracy = cur
		}
		for _, w := range g.Neighbors(v) {
			if !removed[w] {
				deg[w]--
				buckets[deg[w]] = append(buckets[deg[w]], w)
				if deg[w] < cur {
					cur = deg[w]
				}
			}
		}
	}
	return order, degeneracy
}

// CoreNumbers returns the k-core number of each vertex (the largest k such
// that the vertex belongs to a subgraph of minimum degree k). A connected
// k-truss is always contained in a (k-1)-core, a containment the tests check.
func CoreNumbers(g *Graph) []int {
	order, _ := DegeneracyOrder(g)
	n := g.N()
	core := make([]int, n)
	deg := make([]int, n)
	for v := 0; v < n; v++ {
		deg[v] = g.Degree(v)
	}
	removed := make([]bool, n)
	maxCore := 0
	for _, v := range order {
		if deg[v] > maxCore {
			maxCore = deg[v]
		}
		core[v] = maxCore
		removed[v] = true
		for _, w := range g.Neighbors(v) {
			if !removed[w] {
				deg[w]--
			}
		}
	}
	return core
}

// SortedVertexByDegree returns vertex IDs sorted by descending degree
// (ties by ascending ID), as used for the paper's degree-rank query buckets.
func SortedVertexByDegree(g *Graph) []int {
	vs := make([]int, g.N())
	for i := range vs {
		vs[i] = i
	}
	sort.Slice(vs, func(i, j int) bool {
		di, dj := g.Degree(vs[i]), g.Degree(vs[j])
		if di != dj {
			return di > dj
		}
		return vs[i] < vs[j]
	})
	return vs
}
