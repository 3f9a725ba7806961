// Package exact solves the CTC problem by exhaustive search on small graphs.
// The problem is NP-hard (Theorem 1), so this only scales to graphs whose
// maximal connected k-truss G0 has at most ~20 vertices; it exists to
// validate the approximation guarantees of the polynomial algorithms.
package exact

import (
	"errors"
	"fmt"
	"math"
	"math/bits"

	"repro/internal/graph"
	"repro/internal/truss"
)

// MaxVertices bounds the size of G0 the solver will enumerate (2^MaxVertices
// subsets).
const MaxVertices = 20

// Result is an optimal closest truss community.
type Result struct {
	// Vertices is the optimal community's vertex set (original IDs).
	Vertices []int
	// K is the community trussness (the maximum feasible).
	K int32
	// Diameter is the minimum diameter over all connected K-truss subgraphs
	// containing the query.
	Diameter int
}

// ErrTooLarge is returned when G0 exceeds MaxVertices.
var ErrTooLarge = errors.New("exact: G0 too large for exhaustive search")

// Solve finds the exact minimum-diameter connected k-truss containing q,
// where k is the maximum trussness of any connected subgraph containing q.
// Because any optimal CTC is contained in the maximal connected k-truss G0,
// the search enumerates vertex subsets of G0.
func Solve(g *graph.Graph, q []int) (*Result, error) {
	d := truss.Decompose(g)
	g0, k, err := truss.MaxConnectedKTruss(g, d, q)
	if err != nil {
		return nil, err
	}
	return SolveWithin(g0, k, q)
}

// SolveWithin runs the exhaustive search inside a known G0 at trussness k.
func SolveWithin(g0 *graph.Mutable, k int32, q []int) (*Result, error) {
	verts := g0.Vertices()
	n := len(verts)
	if n > MaxVertices {
		return nil, fmt.Errorf("%w: %d vertices", ErrTooLarge, n)
	}
	idx := make(map[int]int, n)
	for i, v := range verts {
		idx[v] = i
	}
	var qMask uint32
	for _, v := range q {
		i, ok := idx[v]
		if !ok {
			return nil, fmt.Errorf("exact: query vertex %d not in G0", v)
		}
		qMask |= 1 << i
	}
	// Compact adjacency bitmasks.
	adj := make([]uint32, n)
	for i, v := range verts {
		g0.ForEachNeighbor(v, func(u int) {
			if j, ok := idx[u]; ok {
				adj[i] |= 1 << j
			}
		})
	}
	bestDiam := math.MaxInt32
	var bestMask uint32
	peeled := make([]uint32, n)
	total := uint32(1) << n
	for mask := uint32(0); mask < total; mask++ {
		if mask&qMask != qMask {
			continue
		}
		// The optimal CTC on a vertex set need not be the induced subgraph
		// (extra low-support edges may violate the truss condition), but the
		// union of all k-trusses on the set is a k-truss: peel the induced
		// subgraph down to its maximal k-truss and evaluate that.
		if !peelToKTruss(adj, mask, k, peeled) {
			continue // some vertex lost all edges: covered by a smaller mask
		}
		if !connectedMask(peeled, mask) {
			continue
		}
		if dm := diameterMask(peeled, mask); dm < bestDiam {
			bestDiam = dm
			bestMask = mask
		}
	}
	if bestDiam == math.MaxInt32 {
		return nil, errors.New("exact: no feasible subgraph (G0 itself should qualify)")
	}
	out := make([]int, 0, bits.OnesCount32(bestMask))
	for i := 0; i < n; i++ {
		if bestMask&(1<<i) != 0 {
			out = append(out, verts[i])
		}
	}
	return &Result{Vertices: out, K: k, Diameter: bestDiam}, nil
}

// connectedMask reports whether the vertices of mask form one connected
// induced subgraph (singleton masks are connected; empty is not).
func connectedMask(adj []uint32, mask uint32) bool {
	if mask == 0 {
		return false
	}
	start := uint32(1) << uint(bits.TrailingZeros32(mask))
	seen := start
	frontier := start
	for frontier != 0 {
		next := uint32(0)
		f := frontier
		for f != 0 {
			i := bits.TrailingZeros32(f)
			f &^= 1 << i
			next |= adj[i] & mask &^ seen
		}
		seen |= next
		frontier = next
	}
	return seen == mask
}

// peelToKTruss fills out with the adjacency of the maximal k-truss of the
// induced subgraph on mask: it repeatedly drops edges with fewer than k-2
// common neighbors until a fixpoint. It reports false if any mask vertex
// ends up isolated (an edgeless vertex cannot belong to a k-truss community
// for k >= 2; that vertex set is covered by a smaller mask).
func peelToKTruss(adj []uint32, mask uint32, k int32, out []uint32) bool {
	m := mask
	for m != 0 {
		i := bits.TrailingZeros32(m)
		m &^= 1 << i
		out[i] = adj[i] & mask
	}
	for changed := true; changed; {
		changed = false
		m = mask
		for m != 0 {
			i := bits.TrailingZeros32(m)
			m &^= 1 << i
			nb := out[i]
			for nb != 0 {
				j := bits.TrailingZeros32(nb)
				nb &^= 1 << j
				if j < i {
					continue
				}
				if int32(bits.OnesCount32(out[i]&out[j])) < k-2 {
					out[i] &^= 1 << j
					out[j] &^= 1 << i
					changed = true
				}
			}
		}
	}
	m = mask
	for m != 0 {
		i := bits.TrailingZeros32(m)
		m &^= 1 << i
		if out[i] == 0 {
			return false
		}
	}
	return true
}

// diameterMask computes the exact diameter of the induced subgraph by BFS
// from every member vertex.
func diameterMask(adj []uint32, mask uint32) int {
	diam := 0
	m := mask
	for m != 0 {
		i := bits.TrailingZeros32(m)
		m &^= 1 << i
		seen := uint32(1) << i
		frontier := seen
		depth := 0
		for seen != mask {
			next := uint32(0)
			f := frontier
			for f != 0 {
				j := bits.TrailingZeros32(f)
				f &^= 1 << j
				next |= adj[j] & mask &^ seen
			}
			if next == 0 {
				return math.MaxInt32 // disconnected (callers prevent this)
			}
			seen |= next
			frontier = next
			depth++
		}
		if depth > diam {
			diam = depth
		}
	}
	return diam
}
