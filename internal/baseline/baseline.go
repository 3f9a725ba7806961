// Package baseline implements the two state-of-the-art community-search
// competitors the paper evaluates against in Exp-3 (Figure 12):
//
//   - MDC, the minimum-degree community model of Sozio & Gionis's "Cocktail
//     Party" (KDD 2010): maximize the minimum degree of a connected subgraph
//     containing Q under a query-distance constraint.
//   - QDC, the query-biased densest connected subgraph of Wu et al. (PVLDB
//     2015): maximize edge mass normalized by query-biased node weights,
//     where weights derive from random-walk proximity to the query.
//
// Both are reimplemented from their papers' descriptions (no public code).
// Exp-3 (internal/exp's ground-truth experiment) is their only user.
package baseline

import (
	"errors"
	"sort"

	"repro/internal/graph"
)

// Result is a community found by a baseline method.
type Result struct {
	// Algorithm is "MDC" or "QDC".
	Algorithm string
	// Vertices is the sorted community vertex set.
	Vertices []int
	// EdgeCount is the number of edges in the community subgraph.
	EdgeCount int
	// Score is the method's own objective value (min degree for MDC,
	// query-biased density for QDC).
	Score float64

	sub *graph.Mutable
}

// ErrNoCommunity is returned when the query cannot be covered.
var ErrNoCommunity = errors.New("baseline: no community contains the query vertices")

// N returns the number of vertices.
func (r *Result) N() int { return len(r.Vertices) }

// M returns the number of edges.
func (r *Result) M() int { return r.EdgeCount }

// Density returns 2m/(n(n-1)).
func (r *Result) Density() float64 {
	n := len(r.Vertices)
	if n < 2 {
		return 0
	}
	return 2 * float64(r.EdgeCount) / (float64(n) * float64(n-1))
}

// Subgraph returns the community subgraph (treat as read-only).
func (r *Result) Subgraph() *graph.Mutable { return r.sub }

func newResult(algo string, sub *graph.Mutable, score float64) *Result {
	return &Result{
		Algorithm: algo,
		Vertices:  sub.Vertices(),
		EdgeCount: sub.M(),
		Score:     score,
		sub:       sub,
	}
}

// ballAround returns the set of vertices whose query distance to q is at
// most bound (the Cocktail Party distance constraint). Query vertices are
// always included: a community must contain Q even when the queries are
// farther than bound from each other.
func ballAround(g *graph.Graph, q []int, bound int32) []int {
	qd := graph.QueryDistances(g, q)
	forced := make(map[int]bool, len(q))
	for _, v := range q {
		forced[v] = true
	}
	out := make([]int, 0)
	for v, d := range qd {
		if forced[v] || (d != graph.Unreachable && d <= bound) {
			out = append(out, v)
		}
	}
	sort.Ints(out)
	return out
}
