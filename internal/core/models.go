package core

// This file dispatches the non-undirected-truss models — D-truss,
// probabilistic (k,γ)-truss, and the MDC/QDC baselines — onto their dense
// CSR ports. All four run against the same indexed graph and pooled
// workspace as the truss algorithms, so they inherit admission control,
// epoch-keyed caching, cancellation, and telemetry from the serve layer
// for free.

import (
	"fmt"
	"sync"

	"repro/internal/baseline"
	"repro/internal/directed"
	"repro/internal/prob"
	"repro/internal/trussindex"
)

// probStore lazily materializes the synthetic edge-probability vector of
// the indexed graph, shared by every AlgoProbTruss query on this Searcher.
// Probabilities are a pure function of edge endpoints (prob.SyntheticProb),
// so the vector is stable across epochs and safe to cache per snapshot.
type probStore struct {
	once  sync.Once
	probs []float64
}

func (s *Searcher) syntheticProbs() []float64 {
	s.probs.once.Do(func() {
		s.probs.probs = prob.SyntheticProbs(s.ix.Graph())
	})
	return s.probs.probs
}

// searchDirected runs AlgoDTruss: orient the serving graph under
// req.Direction, find the largest-kc (kc, kf=K)-D-truss connecting Q, and
// greedily shrink the query distance. Community.K reports the cycle level
// kc.
func (s *Searcher) searchDirected(req Request, ws *trussindex.Workspace, res *Result) error {
	com, dst, err := directed.SearchCSR(s.ix.Graph(), req.Q, int(req.K), directed.Orientation(req.Direction), ws)
	if err != nil {
		return fmt.Errorf("core: DTruss: %w", err)
	}
	st := &res.Stats
	st.Seed, st.Peel = dst.Seed, dst.Peel
	st.SeedEdges = dst.SeedEdges
	st.PeelRounds = dst.PeelRounds
	st.EdgesPeeled = dst.EdgesPeeled
	initCommunity(&res.Community, AlgoDTruss.String(), com.Sub, int32(com.Kc), req.Q, ws)
	return nil
}

// searchProb runs AlgoProbTruss: (k,γ)-truss decomposition at γ =
// req.MinProb over the synthetic edge probabilities, seeded with the
// largest connected level (K > 0 caps it), then the greedy shrink.
func (s *Searcher) searchProb(req Request, ws *trussindex.Workspace, res *Result) error {
	com, pst, err := prob.SearchCSR(s.ix.Graph(), s.syntheticProbs(), req.Q, req.minProb(), req.K, ws)
	if err != nil {
		return fmt.Errorf("core: ProbTruss: %w", err)
	}
	st := &res.Stats
	st.Seed, st.Peel = pst.Seed, pst.Peel
	st.SeedEdges = pst.SeedEdges
	st.PeelRounds = pst.PeelRounds
	st.EdgesPeeled = pst.EdgesPeeled
	initCommunity(&res.Community, AlgoProbTruss.String(), com.Sub, com.K, req.Q, ws)
	return nil
}

// searchMDC runs the minimum-degree-community baseline with the model's
// default distance bound. Community.K reports the achieved minimum degree.
func (s *Searcher) searchMDC(req Request, ws *trussindex.Workspace, res *Result) error {
	r, bst, err := baseline.MDCW(s.ix.Graph(), req.Q, nil, ws)
	if err != nil {
		return fmt.Errorf("core: MDC: %w", err)
	}
	fillBaseline(res, r, bst, AlgoMDC, int32(r.Score), req.Q, ws)
	return nil
}

// searchQDC runs the query-biased densest-subgraph baseline with the
// model's default walk parameters. The density objective has no trussness,
// so Community.K is 0; Result carries the score via the subgraph itself.
func (s *Searcher) searchQDC(req Request, ws *trussindex.Workspace, res *Result) error {
	r, bst, err := baseline.QDCW(s.ix.Graph(), req.Q, nil, ws)
	if err != nil {
		return fmt.Errorf("core: QDC: %w", err)
	}
	fillBaseline(res, r, bst, AlgoQDC, 0, req.Q, ws)
	return nil
}

func fillBaseline(res *Result, r *baseline.Result, bst *baseline.Stats, algo Algo, k int32, q []int, ws *trussindex.Workspace) {
	st := &res.Stats
	st.Seed, st.Peel = bst.Seed, bst.Peel
	st.SeedEdges = r.M()
	st.PeelRounds = bst.PeelSteps
	initCommunity(&res.Community, algo.String(), r.Subgraph(), k, q, ws)
}
