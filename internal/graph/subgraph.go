package graph

import "sort"

// Induced returns the induced subgraph of g on the given vertex set, keeping
// the original vertex IDs (the result has the same ID space as g, with
// non-selected vertices isolated). Degenerate input is tolerated: duplicate
// and out-of-range vertices are ignored.
func Induced(g *Graph, vertices []int) *Graph {
	in := make([]bool, g.N())
	for _, v := range vertices {
		if v >= 0 && v < g.N() {
			in[v] = true
		}
	}
	b := NewBuilder(g.N(), 0)
	if g.N() > 0 {
		b.EnsureVertex(g.N() - 1)
	}
	g.ForEachEdge(func(u, v int) {
		if in[u] && in[v] {
			b.AddEdge(u, v)
		}
	})
	return b.Build()
}

// InducedCompact returns the induced subgraph with vertices renumbered to
// 0..k-1 plus the mapping newID -> oldID.
func InducedCompact(g *Graph, vertices []int) (*Graph, []int) {
	uniq := make([]int, 0, len(vertices))
	seen := make(map[int]bool, len(vertices))
	for _, v := range vertices {
		if v >= 0 && v < g.N() && !seen[v] {
			seen[v] = true
			uniq = append(uniq, v)
		}
	}
	sort.Ints(uniq)
	newID := make(map[int]int, len(uniq))
	for i, v := range uniq {
		newID[v] = i
	}
	b := NewBuilder(len(uniq), 0)
	if len(uniq) > 0 {
		b.EnsureVertex(len(uniq) - 1)
	}
	g.ForEachEdge(func(u, v int) {
		iu, ok1 := newID[u]
		iv, ok2 := newID[v]
		if ok1 && ok2 {
			b.AddEdge(iu, iv)
		}
	})
	return b.Build(), uniq
}

// InducedMutable returns a Mutable holding the induced subgraph of mu on the
// given vertices. The result shares mu's base graph (and edge-ID space).
func InducedMutable(mu *Mutable, vertices []int) *Mutable {
	out := newOverlay(mu.base)
	in := make([]bool, len(mu.present))
	for _, v := range vertices {
		if v < 0 || v >= len(in) || !mu.Present(v) {
			continue
		}
		in[v] = true
		if !out.present[v] {
			out.present[v] = true
			out.n++
		}
	}
	mu.alive.ForEach(func(e int32) {
		u, v := mu.base.EdgeEndpoints(e)
		if in[u] && in[v] {
			out.alive.Set(e)
			out.aliveM++
			out.deg[u]++
			out.deg[v]++
		}
	})
	return out
}

// EdgesWithin returns the number of edges of g with both endpoints in the
// given set.
func EdgesWithin(g *Graph, vertices []int) int {
	in := make([]bool, g.N())
	for _, v := range vertices {
		if v >= 0 && v < g.N() {
			in[v] = true
		}
	}
	count := 0
	for _, v := range vertices {
		if v < 0 || v >= g.N() {
			continue
		}
		for _, w := range g.Neighbors(v) {
			if int(w) > v && in[w] {
				count++
			}
		}
	}
	return count
}

// Density returns the edge density 2m / (n(n-1)) of a vertex set in g,
// the statistic reported in the paper's Figures 5-10.
func Density(g *Graph, vertices []int) float64 {
	n := len(vertices)
	if n < 2 {
		return 0
	}
	m := EdgesWithin(g, vertices)
	return 2 * float64(m) / (float64(n) * float64(n-1))
}
