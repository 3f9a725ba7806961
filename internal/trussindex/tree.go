package trussindex

// treeNode is a node of the index's truss-level tree: its parent (-1 at a
// root) and its level.
type treeNode struct{ parent, level int32 }

// buildTree builds the truss-level tree, a Kruskal reconstruction tree of
// the edges taken in descending trussness. Nodes 0..n-1 are the vertices;
// every later node is a connected component of {e : τ(e) ≥ t} at the level t
// where it formed, and its children are the components and vertices it
// joined. Components that merge at the same level are one node, so levels
// strictly fall toward a root and no path is longer than the number of
// distinct trussness values. A vertex's level is that of the first node that
// took it in, τ(v); an isolated vertex is a root at level 0. Each node joins
// two or more children, so the tree has at most 2n-1 nodes.
func (ix *Index) buildTree() {
	g := ix.g
	n, m := g.N(), g.M()
	// Counting sort of the edge IDs by descending τ: afterwards level t's
	// edges are order[cnt[t]:cnt[t-1]] (order[cnt[0]:] at level 0).
	cnt := make([]int32, ix.maxTruss+2)
	for _, t := range ix.edgeTruss {
		cnt[t]++
	}
	for t := ix.maxTruss; t >= 0; t-- {
		cnt[t] += cnt[t+1]
	}
	order := make([]int32, m)
	for e, t := range ix.edgeTruss {
		cnt[t]--
		order[cnt[t]] = int32(e)
	}
	tree := make([]treeNode, n, 2*n)
	// uf is a union-find over the vertices: uf[r] = -size at a root. comp[r]
	// is the tree node of root r's component, and mark[r] = t+1 once level t
	// has recorded that node as a child.
	uf := make([]int32, n)
	comp := make([]int32, n)
	mark := make([]int32, n)
	for v := range tree {
		tree[v].parent = -1
		uf[v] = -1
		comp[v] = int32(v)
	}
	find := func(x int32) int32 {
		for uf[x] >= 0 {
			if p := uf[x]; uf[p] >= 0 {
				uf[x] = uf[p]
			}
			x = uf[x]
		}
		return x
	}
	var kids []int32 // (root, its node below the level) pairs
	for t := ix.maxTruss; t >= 0; t-- {
		lo, hi := cnt[t], int32(m)
		if t > 0 {
			hi = cnt[t-1]
		}
		kids = kids[:0]
		for _, e := range order[lo:hi] {
			u, v := g.EdgeEndpoints(e)
			ru, rv := find(int32(u)), find(int32(v))
			if ru == rv {
				continue
			}
			for _, r := range [2]int32{ru, rv} {
				if mark[r] != t+1 {
					mark[r] = t + 1
					kids = append(kids, r, comp[r])
				}
			}
			if uf[ru] > uf[rv] {
				ru, rv = rv, ru
			}
			uf[ru] += uf[rv]
			uf[rv] = ru
		}
		// One new node per component the level formed, above its children.
		first := int32(len(tree))
		for i := 0; i < len(kids); i += 2 {
			r, child := find(kids[i]), kids[i+1]
			if comp[r] < first {
				comp[r] = int32(len(tree))
				tree = append(tree, treeNode{parent: -1, level: t})
			}
			tree[child].parent = comp[r]
			if child < int32(n) {
				tree[child].level = t
			}
		}
	}
	ix.tree = tree
}

// ConnectLevel returns the largest t such that u and v are connected in the
// subgraph of the edges with τ ≥ t — τ(u) when u == v — or 0 when they are
// not connected at all. It walks the truss-level tree up to the two vertices'
// lowest common ancestor, always climbing from the side with the higher level
// (from the lower node ID between equal levels, so a vertex leaves the node at
// its own level before that node does), in O(#distinct τ) steps. u and v must
// be vertices of the indexed graph.
func (ix *Index) ConnectLevel(u, v int) int32 {
	tree := ix.tree
	a, b := int32(u), int32(v)
	for a != b {
		if la, lb := tree[a].level, tree[b].level; la < lb || (la == lb && a > b) {
			a, b = b, a
		}
		if a = tree[a].parent; a < 0 {
			return 0
		}
	}
	return tree[a].level
}
