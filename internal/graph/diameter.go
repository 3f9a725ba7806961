package graph

import (
	"cmp"
	"slices"
)

// Diameter returns the exact diameter of the present vertices: the largest
// finite shortest-path length. ok is false when the present vertices are
// disconnected; the diameter is then the largest over the components. An
// empty or single-vertex graph has diameter 0.
//
// It is iFUB (Crescenzi, Grossi, Habib, Lanzi & Marino, "On computing the
// diameter of real-world undirected graphs", TCS 2013), one component at a
// time. A BFS from a vertex u of highest degree sorts the component into
// levels by distance from u. BFSes from the vertices of the deepest level
// upward raise lb, the largest eccentricity found. Two vertices within
// distance i of u are at most 2i apart, and a pair farther apart has an
// endpoint below level i, whose eccentricity is in lb once the levels below
// i are swept. So the sweep stops as soon as lb >= 2i, whether level i is
// under way or not yet begun: lb is then the component's diameter.
func Diameter(g Adjacency) (diam int, ok bool) {
	n := g.NumIDs()
	deg := make([]int32, n)
	var order []int32
	var v int
	count := func(int) { deg[v]++ }
	for v = 0; v < n; v++ {
		if g.Present(v) {
			g.ForEachNeighbor(v, count)
			order = append(order, int32(v))
		}
	}
	slices.SortFunc(order, func(a, b int32) int { return cmp.Or(cmp.Compare(deg[b], deg[a]), cmp.Compare(a, b)) })

	dist := make([]int32, n)
	seen := make([]bool, n)
	var levels, queue []int32
	var start []int // start[i] indexes the first vertex of level i in levels
	components := 0
	for _, u := range order {
		if seen[u] {
			continue
		}
		components++
		levels = BFS(g, int(u), dist, levels)
		start = start[:0]
		for j, w := range levels {
			seen[w] = true
			if int(dist[w]) == len(start) {
				start = append(start, j)
			}
		}
		depth := len(start) - 1
		lb, i := depth, depth
		for j := len(levels) - 1; lb < 2*i; j-- {
			queue = BFS(g, int(levels[j]), dist, queue)
			lb = max(lb, int(dist[queue[len(queue)-1]]))
			if j == start[i] {
				i--
			}
		}
		diam = max(diam, lb)
	}
	return diam, components <= 1
}
