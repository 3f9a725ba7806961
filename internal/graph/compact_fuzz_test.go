package graph

import (
	"slices"
	"testing"
)

// compactSizes are the vertex counts FuzzCompactGraph builds: both sides of
// every 64-bit word boundary a row can end on, and both sides of
// maxRowVertices, where the kernels change.
var compactSizes = []int{1, 63, 64, 65, 2047, 2048, 2049}

// compactSource is the graph the fuzz target cuts its compact graph out of:
// 2n+3 vertices of which every odd one is kept, so local vertex l is source
// vertex 2l+1. Kept vertices are joined to the kept vertices 1, 2, 63, 64 and
// 65 places on — triangles whose corners straddle word boundaries — and every
// kept vertex also has an edge to an even (dropped) neighbour that Build must
// ignore.
func compactSource(n int) (src *Graph, verts []int32) {
	b := NewBuilder(2*n+3, 6*n)
	b.EnsureVertex(2*n + 2)
	for l := 0; l < n; l++ {
		verts = append(verts, int32(2*l+1))
		for _, step := range []int{1, 2, 63, 64, 65} {
			if l+step < n {
				b.AddEdge(2*l+1, 2*(l+step)+1)
			}
		}
		b.AddEdge(2*l+1, 2*l+2)
	}
	return b.Build(), verts
}

// buildCompact builds c over the given vertices of src, offering every arc.
func buildCompact(t *testing.T, c *Compact, src *Graph, verts []int32) {
	t.Helper()
	member := NewStamp(src.N())
	member.Next()
	for _, v := range verts {
		member.Set(v)
	}
	arcs := func(v int) ([]int32, []int32) { return src.Neighbors(v), src.NeighborEdgeIDs(v) }
	if err := c.Build(verts, member, make([]int32, src.N()), arcs, nil); err != nil {
		t.Fatal(err)
	}
}

// FuzzCompactGraph model-checks a Compact graph and its overlays. The graph
// itself — relabelling, edge numbering, the maps back to the source, edge
// lookup and supports — is held to the same graph from a Builder. Then ops
// decoded from the fuzz input (each quad picks a vertex and one of its arcs)
// delete edges and vertices from a pooled overlay refilled with the whole
// graph, clone, and move into a pooled buffer or a pooled shell — the buffer
// and the shell were last bound to the Compact when it had another size; at
// the end the overlay is held to a map model and, kernel by kernel, to the
// same edits replayed on an overlay of the Builder's graph.
func FuzzCompactGraph(f *testing.F) {
	for i := range compactSizes {
		f.Add(uint8(i), []byte{0, 0, 3, 1, 1, 0, 64, 0, 2, 0, 0, 0, 0, 0, 65, 2, 3, 0, 0, 0, 4, 0, 0, 0, 0, 0, 1, 4, 1, 7, 255, 1})
	}
	f.Fuzz(func(t *testing.T, size uint8, data []byte) {
		n := compactSizes[int(size)%len(compactSizes)]
		src, verts := compactSource(n)

		// A first build at another size, so that the pooled overlays below are
		// stale — wrong length, wrong row stride, bits set — when the real
		// build replaces the graph under them.
		var c Compact
		other, otherVerts := compactSource(compactSizes[(int(size)+3)%len(compactSizes)])
		buildCompact(t, &c, other, otherVerts)
		g := &c.G
		shell, buf := NewMutableShell(g), NewMutable(g, nil)
		for e := int32(0); e < int32(g.M()); e += 3 {
			shell.AddEdgeByID(e)
		}
		buildCompact(t, &c, src, verts)

		if (g.rows != nil) != (n <= maxRowVertices) {
			t.Fatalf("n=%d: rows attached = %v", n, g.rows != nil)
		}
		pb := NewBuilder(n, g.M())
		pb.EnsureVertex(n - 1)
		for e, k := range g.edges {
			u, v := k.Endpoints()
			pb.AddEdge(u, v)
			if want := src.EdgeID(int(c.Vert[u]), int(c.Vert[v])); c.Edge[e] != want {
				t.Fatalf("Edge[%d] = %d, want source edge %d", e, c.Edge[e], want)
			}
		}
		plain := pb.Build()
		if !slices.Equal(c.Vert, verts) || g.N() != n || !slices.Equal(g.edges, plain.edges) ||
			!slices.Equal(g.off, plain.off) || !slices.Equal(g.nbr, plain.nbr) || !slices.Equal(g.aeid, plain.aeid) {
			t.Fatalf("n=%d: compact graph differs from the Builder's", n)
		}
		for l, v := range verts {
			if c.Local(int(v)) != l || c.Local(int(v)-1) != -1 {
				t.Fatalf("Local(%d) = %d, Local(%d) = %d", v, c.Local(int(v)), v-1, c.Local(int(v)-1))
			}
		}
		for u := 0; u < n; u++ {
			for _, d := range []int{1, 2, 3, 62, 63, 64, 65, 66} {
				if got, want := g.EdgeID(u, (u+d)%n), plain.EdgeID(u, (u+d)%n); got != want {
					t.Fatalf("EdgeID(%d,%d) = %d, want %d", u, (u+d)%n, got, want)
				}
			}
		}
		if !slices.Equal(EdgeSupports(g), EdgeSupports(plain)) {
			t.Fatalf("n=%d: EdgeSupports diverged", n)
		}

		buf.Reset(g)
		buf.Fill()
		mu, ref := buf, NewMutable(plain, nil)
		edges := map[EdgeKey]bool{}
		present := map[int]bool{}
		for _, k := range g.edges {
			edges[k] = true
		}
		for v := 0; v < n; v++ {
			present[v] = true
		}
		for i := 0; i+3 < len(data); i += 4 {
			u := (int(data[i+1])<<8 | int(data[i+2])) % n
			switch data[i] % 5 {
			case 0:
				if g.Degree(u) == 0 {
					continue
				}
				e := g.NeighborEdgeIDs(u)[int(data[i+3])%g.Degree(u)]
				if mu.DeleteEdgeByID(e) != edges[g.edges[e]] {
					t.Fatalf("DeleteEdgeByID(%d) disagreed with model", e)
				}
				ref.DeleteEdgeByID(e)
				delete(edges, g.edges[e])
			case 1:
				mu.DeleteVertex(u)
				ref.DeleteVertex(u)
				delete(present, u)
				for _, x := range g.Neighbors(u) {
					delete(edges, Key(u, int(x)))
				}
			case 2:
				mu = mu.Clone()
			case 3, 4:
				dst := buf
				if data[i]%5 == 4 {
					dst = shell
				}
				if mu != dst {
					dst.Reset(g)
					mu.ForEachLiveEdge(func(e int32, _, _ int) { dst.AddEdgeByID(e) })
					for v := range present {
						dst.EnsureVertex(v)
					}
					mu = dst
				}
			}
		}

		if mu.M() != len(edges) || mu.N() != len(present) || ref.M() != len(edges) {
			t.Fatalf("M = %d, N = %d; model has %d edges, %d vertices", mu.M(), mu.N(), len(edges), len(present))
		}
		degree := make([]int, n)
		for k := range edges {
			u, v := k.Endpoints()
			degree[u]++
			degree[v]++
			if !mu.HasEdge(u, v) || !mu.EdgeAlive(g.EdgeID(u, v)) {
				t.Fatalf("model edge %s missing", k)
			}
		}
		for v := 0; v < n; v++ {
			if mu.Present(v) != present[v] || mu.Degree(v) != degree[v] {
				t.Fatalf("vertex %d: present %v degree %d, model %v %d", v, mu.Present(v), mu.Degree(v), present[v], degree[v])
			}
		}
		if !slices.Equal(mu.EdgeKeys(), ref.EdgeKeys()) {
			t.Fatal("edge set differs from the replay on the Builder's graph")
		}
		if got, want := MutableEdgeSupports(mu), MutableEdgeSupports(ref); !slices.Equal(got, want) {
			t.Fatal("MutableEdgeSupports diverged")
		}
		type wing struct{ w, euw, evw int32 }
		mu.ForEachLiveEdge(func(e int32, u, v int) {
			var got, want []wing
			mu.CommonNeighborsEdges(u, v, func(w, euw, evw int32) { got = append(got, wing{w, euw, evw}) })
			ref.CommonNeighborsEdges(u, v, func(w, euw, evw int32) { want = append(want, wing{w, euw, evw}) })
			if !slices.Equal(got, want) {
				t.Fatalf("triangles of edge %d: %v, want %v", e, got, want)
			}
		})
		gotDist, wantDist := make([]int32, n), make([]int32, n)
		gotSt, wantSt := NewStamp(n), NewStamp(n)
		for _, src := range []int{0, n / 2, n - 1} {
			gotQ := BFSMarked(mu, src, gotDist, gotSt, nil)
			wantQ := BFSMarked(ref, src, wantDist, wantSt, nil)
			if !slices.Equal(gotQ, wantQ) {
				t.Fatalf("BFS from %d: reach order diverged", src)
			}
			for _, v := range wantQ {
				if !gotSt.Marked(v) || gotDist[v] != wantDist[v] {
					t.Fatalf("dist(%d,%d) = %d, want %d", src, v, gotDist[v], wantDist[v])
				}
			}
		}
	})
}
