package core

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/graph"
	"repro/internal/steiner"
	"repro/internal/truss"
	"repro/internal/trussindex"
)

// Searcher runs closest-truss-community searches against a truss index.
// A Searcher is stateless apart from the shared immutable index: every
// query checks a workspace out of the index's pool for its scratch, so one
// Searcher safely serves any number of concurrent queries.
type Searcher struct {
	ix  *trussindex.Index
	tau []int32 // the index's edge trussness, which every answer shares
}

// NewSearcher wraps a prebuilt truss index.
func NewSearcher(ix *trussindex.Index) *Searcher {
	return &Searcher{ix: ix, tau: ix.Decomposition().Truss}
}

// Index returns the underlying truss index.
func (s *Searcher) Index() *trussindex.Index { return s.ix }

// findG0 resolves the starting graph into the workspace's Expansion: the
// maximal connected k-truss with the largest k, or with the fixed k requested
// (which FindKTrussW clamps to at least 2).
func (s *Searcher) findG0(q []int, fixedK int32, ws *trussindex.Workspace) (*trussindex.Expansion, int32, error) {
	if fixedK > 0 {
		return s.ix.FindKTrussW(q, fixedK, ws)
	}
	return s.ix.FindG0W(q, ws)
}

// searchGlobal runs the three G0-seeded algorithms (TrussOnly, Basic,
// BulkDelete): resolve the starting k-truss, then peel under the
// algorithm's victim rule (TrussOnly skips the peel). Fills res in place.
func (s *Searcher) searchGlobal(req Request, ws *trussindex.Workspace, res *Result) error {
	st := &res.Stats
	t0 := time.Now()
	x, k, err := s.findG0(req.Q, req.K, ws)
	st.Seed = time.Since(t0)
	if err != nil {
		return err
	}
	st.SeedEdges = x.G.M()
	tp := time.Now()
	best := x.Whole()
	if req.Algo != AlgoTrussOnly {
		rule := peelSingle
		if req.Algo == AlgoBulkDelete {
			rule = peelBulk
		}
		if best, err = greedyPeel(best, k, x.Q, rule, ws, st); err != nil {
			st.Peel = time.Since(tp)
			return fmt.Errorf("core: %s: %w", req.Algo, err)
		}
	}
	handBack(&res.Community, req.Algo.String(), k, k, req.Q, best, x, s.ix.Graph(), s.tau, ws) // see searchLCTC
	st.Peel = time.Since(tp)
	return nil
}

// searchLCTC runs Algorithm 5: seed a Steiner tree over Q under truss
// distance, locally expand it to at most η vertices through edges of
// trussness >= kt, extract the best connected k-truss containing Q from the
// expansion, and shrink it with the exact-distance bulk rule
// L' = {u : dist(u,Q) >= d}. Fills res in place; the Seed timing covers the
// Steiner build, Expand the local expansion plus k-truss extraction, Peel
// the free-rider shrink.
func (s *Searcher) searchLCTC(req Request, ws *trussindex.Workspace, res *Result) error {
	st := &res.Stats
	t0 := time.Now()
	tree, err := steiner.BuildW(s.ix, req.Q, req.gamma(), ws)
	st.Seed = time.Since(t0)
	if err != nil {
		return fmt.Errorf("core: LCTC Steiner seed: %w", err)
	}
	kt := tree.MinTruss
	if fk := req.K; fk > 0 && fk < kt {
		kt = fk
	}
	if kt < 2 {
		kt = 2
	}
	te := time.Now()
	x, err := s.expand(tree.Vertices, kt, req.eta(), ws)
	if err != nil {
		st.Expand = time.Since(te)
		return fmt.Errorf("core: LCTC expansion: %w", err)
	}
	x.SetQuery(req.Q)
	// Truss-decompose the expansion up to kt — bestKTrussWithin never looks
	// above it — and find the largest k <= kt such that a connected k-truss
	// containing Q survives inside Gt. Cancellable: with a client-supplied η
	// the expansion can span the whole graph, so the peel polls the same
	// workspace hook as every other phase.
	dec, err := truss.DecomposeCapped(&x.G, kt, ws.Canceled, &x.Decompose)
	if err != nil {
		st.Expand = time.Since(te)
		return fmt.Errorf("core: LCTC expansion: %w", err)
	}
	ht, k, err := bestKTrussWithin(dec, x.Q, kt, ws)
	st.Expand = time.Since(te)
	if err != nil {
		return fmt.Errorf("core: LCTC extraction: %w", err)
	}
	st.SeedEdges = ht.M()
	tp := time.Now()
	best, err := greedyPeel(ht, k, x.Q, peelBulkExact, ws, st)
	if err != nil {
		return fmt.Errorf("core: LCTC: %w", err)
	}
	// Everything so far lives in the pooled expansion; the community is read
	// off it as its vertex set in the index's IDs — the gap-coded list is,
	// with the copy of Q, the only allocation after the seed — so that a
	// retained Result keeps nothing of this query alive. The expansion holds
	// the edges of trussness >= kt, so kt is the answer's threshold.
	handBack(&res.Community, AlgoLCTC.String(), k, kt, req.Q, best, x, s.ix.Graph(), s.tau, ws)
	st.Peel = time.Since(tp)
	return nil
}

// expand grows the vertex set from the Steiner tree through edges of
// trussness >= kt, BFS order, stopping once the budget is reached, and
// returns the induced subgraph on the collected vertices restricted to
// edges of trussness >= kt — as the compact graph of the workspace's
// Expansion: vertices relabelled in ascending order, so local edge order is
// index edge-ID order and every smallest-ID tie-break downstream decides as
// it would on the index's graph. The workspace cancel hook is polled every
// cancelStride vertices.
func (s *Searcher) expand(seed []int, kt int32, eta int, ws *trussindex.Workspace) (*trussindex.Expansion, error) {
	// The expansion cannot outgrow the graph, whatever the client asked for.
	if n := s.ix.Graph().N(); eta > n {
		eta = n
	}
	in := ws.StampA
	in.Next()
	frontier := ws.QueueA[:0]
	count := 0
	for _, v := range seed {
		if in.Visit(int32(v)) {
			count++
			frontier = append(frontier, int32(v))
		}
	}
	for head := 0; head < len(frontier) && count < eta; head++ {
		if head&(cancelStride-1) == 0 {
			if err := ws.Canceled(); err != nil {
				ws.QueueA = frontier
				return nil, err
			}
		}
		v := int(frontier[head])
		nbrs, _ := s.ix.NeighborsAtLeast(v, kt)
		for _, u := range nbrs {
			if count >= eta {
				break
			}
			if in.Visit(u) {
				count++
				frontier = append(frontier, u)
			}
		}
	}
	slices.Sort(frontier)
	ws.QueueA = frontier
	x := ws.Expansion()
	arcs := func(v int) ([]int32, []int32) { return s.ix.NeighborsAtLeast(v, kt) }
	if err := x.Build(frontier, in, ws.ValA, arcs, ws.Canceled); err != nil {
		return nil, err
	}
	return x, nil
}

// bestKTrussWithin finds the maximum k <= cap such that the subgraph of the
// decomposed expansion restricted to edges of local trussness >= k connects
// q, and returns the q-component of that subgraph in a shell of the
// workspace's Expansion (whose graph dec.G is), valid until the Expansion
// hands that shell out again. The candidate subgraphs are built
// incrementally: edges enter a pooled overlay in descending trussness
// order, so scanning k from the Lemma-1 bound downward inserts each edge at
// most once. Cancellation is polled once per candidate level.
func bestKTrussWithin(dec *truss.Decomposition, q []int, capK int32, ws *trussindex.Workspace) (*graph.Mutable, int32, error) {
	hi := dec.QueryUpperBound(q)
	if hi > capK {
		hi = capK
	}
	if hi < 2 {
		return nil, 0, truss.ErrNoCommunity
	}
	m := dec.G.M()
	// Counting sort of edge IDs by descending trussness.
	cnt := ws.CountBuf(int(dec.MaxTruss) + 2)
	for _, t := range dec.Truss {
		cnt[t]++
	}
	for t := dec.MaxTruss - 1; t >= 0; t-- {
		cnt[t] += cnt[t+1]
	}
	order := ws.QueueB
	if cap(order) < m {
		order = make([]int32, m)
	}
	order = order[:m]
	for e := int32(0); e < int32(m); e++ {
		t := dec.Truss[e]
		cnt[t]--
		order[cnt[t]] = e
	}
	ws.QueueB = order
	x := ws.Expansion()
	mu := x.Shell()
	pos := 0
	for k := hi; k >= 2; k-- {
		if err := ws.Canceled(); err != nil {
			return nil, 0, err
		}
		for pos < m && dec.Truss[order[pos]] >= k {
			mu.AddEdgeByID(order[pos])
			pos++
		}
		if !connectedOn(mu, q, ws) {
			continue
		}
		ht := x.Shell()
		copyComponent(ht, q, mu, q[0], ws)
		return ht, k, nil
	}
	return nil, 0, truss.ErrNoCommunity
}

// copyComponent adds the connected component of src in mu to dst, an
// overlay of the same graph, edge by edge, and then the query vertices q in
// case one has no edge.
func copyComponent(dst *graph.Mutable, q []int, mu *graph.Mutable, src int, ws *trussindex.Workspace) {
	comp := graph.BFSMarked(mu, src, ws.ValA, ws.StampA, ws.QueueA)
	ws.QueueA = comp
	for _, vq := range comp {
		v := int(vq)
		mu.ForEachIncidentEdge(v, func(e int32, w int) {
			if w > v {
				dst.AddEdgeByID(e)
			}
		})
	}
	for _, v := range q {
		dst.EnsureVertex(v)
	}
}

// connectedOn reports whether all of q is present and mutually reachable in
// mu, using stamped BFS scratch.
func connectedOn(mu *graph.Mutable, q []int, ws *trussindex.Workspace) bool {
	for _, v := range q {
		if !mu.Present(v) {
			return false
		}
	}
	if len(q) <= 1 {
		return true
	}
	reach := graph.BFSMarked(mu, q[0], ws.ValA, ws.StampA, ws.QueueA)
	ws.QueueA = reach
	for _, v := range q[1:] {
		if !ws.StampA.Marked(int32(v)) {
			return false
		}
	}
	return true
}

// verifyResult re-checks a finished result (Request.Verify) against the CTC
// conditions — a connected k-truss containing Q — and holds the stored
// answer to the subgraph Subgraph re-derives from it: the same vertices and
// the same edge count.
func verifyResult(res *Result) error {
	c := &res.Community
	sub := c.Subgraph()
	if err := truss.VerifyCommunity(sub, c.K, c.Query); err != nil {
		return fmt.Errorf("core: %s produced an invalid community: %w", c.Algorithm, err)
	}
	if !slices.Equal(sub.Vertices(), c.Vertices()) || sub.M() != c.M() {
		return fmt.Errorf("core: %s answer of %d vertices and %d edges re-derives as %d vertices and %d edges",
			c.Algorithm, c.N(), c.M(), sub.N(), sub.M())
	}
	return nil
}
