// Package steiner provides the truss-distance metric (Definition 7 of the
// paper) and a KMB/Mehlhorn-style 2-approximate Steiner tree over it, the
// seed structure of the LCTC local-exploration algorithm (Algorithm 5).
package steiner

import (
	"math"

	"repro/internal/graph"
	"repro/internal/trussindex"
)

// Inf marks unreachable truss distances.
var Inf = math.Inf(1)

// Metric evaluates the truss distance
//
//	ˆdist_P(u,v) = dist_P(u,v) + γ·(τ̄(∅) − min_{e∈P} τ(e))
//
// exactly, by scanning the distinct trussness thresholds t in descending
// order and running a BFS restricted to edges with τ ≥ t: the optimum over
// paths equals the minimum over thresholds of hops_t + γ(τ̄(∅) − t).
type Metric struct {
	ix         *trussindex.Index
	gamma      float64
	thresholds []int32
}

// NewMetric builds a Metric with penalty weight gamma >= 0. gamma = 0
// degenerates to plain hop distance. The threshold list is shared with the
// index, so construction is allocation-free.
func NewMetric(ix *trussindex.Index, gamma float64) *Metric {
	if gamma < 0 {
		gamma = 0
	}
	return &Metric{ix: ix, gamma: gamma, thresholds: ix.ThresholdsShared()}
}

// Gamma returns the penalty weight.
func (m *Metric) Gamma() float64 { return m.gamma }

// DistancesFrom returns for every vertex v the truss distance from src, plus
// for each v the threshold t achieving it (0 when unreachable). Unreachable
// vertices get Inf. It is exhaustive — one whole-component BFS per
// threshold — and is what the tests hold pairDistances against; query paths
// use pairDistances.
func (m *Metric) DistancesFrom(src int) (dist []float64, bestT []int32) {
	ws := m.ix.AcquireWorkspace()
	defer ws.Release()
	n := m.ix.Graph().N()
	dist = make([]float64, n)
	bestT = make([]int32, n)
	_ = m.distancesInto(src, dist, bestT, ws)
	return dist, bestT
}

// distancesInto fills caller-owned output arrays (length n) using workspace
// scratch. Per threshold, only the BFS-reached subgraph is traversed and
// merged — the whole-graph work is the one-time Inf fill of the outputs.
// The workspace cancel hook is polled once per threshold BFS (the natural
// "BFS-level" granularity of this metric); on cancellation the outputs are
// left partially filled and the context error is returned.
func (m *Metric) distancesInto(src int, dist []float64, bestT []int32, ws *trussindex.Workspace) error {
	for i := range dist {
		dist[i] = Inf
		bestT[i] = 0
	}
	if src < 0 || src >= len(dist) {
		return nil
	}
	dist[src] = 0
	if len(m.thresholds) > 0 {
		bestT[src] = m.thresholds[0]
	}
	hop, st := ws.ValA, ws.StampA
	queue := ws.QueueA
	maxT := float64(m.ix.MaxTruss())
	for _, t := range m.thresholds {
		if err := ws.Canceled(); err != nil {
			ws.QueueA = queue
			return err
		}
		penalty := m.gamma * (maxT - float64(t))
		// Stamped BFS over edges with τ >= t.
		st.Next()
		st.Set(int32(src))
		hop[src] = 0
		queue = queue[:0]
		queue = append(queue, int32(src))
		for head := 0; head < len(queue); head++ {
			v := int(queue[head])
			hv := hop[v]
			nbrs, _ := m.ix.NeighborsAtLeast(v, t)
			for _, u := range nbrs {
				if st.Visit(u) {
					hop[u] = hv + 1
					queue = append(queue, u)
				}
			}
		}
		// Merge over the reached set only.
		for _, vq := range queue {
			if d := float64(hop[vq]) + penalty; d < dist[vq] {
				dist[vq] = d
				bestT[vq] = t
			}
		}
	}
	ws.QueueA = queue
	return nil
}

// pairDistances returns the truss distance between every two of the distinct
// terminals terms, and the threshold realizing it, as symmetric r×r row-major
// matrices (diagonal 0) — the entries DistancesFrom(terms[i]) holds at
// terms[j], at a cost bounded by how close the terminals are instead of by
// the graph — or ErrDisconnected, before any BFS, when the truss-level tree
// says some pair is not connected at all.
//
// From each terminal the thresholds are scanned in the same descending order
// with the same strict-< improvement, so ties between thresholds resolve
// identically. The tree gives each later terminal j its bottleneck level
// lev[j], the largest t whose threshold subgraph connects it to the source;
// a BFS at t reaches exactly the terminals with lev[j] ≥ t. With the penalty
// only growing along the scan, that gives three stops: thresholds above
// every lev[j] are skipped; a BFS ends once the next level (hop+1+penalty)
// cannot beat the worst distance among the terminals it can still reach and
// has not; and the scan ends at the first threshold whose one-hop cost
// (1+penalty) cannot beat the worst distance among all the terminals after
// the source. The workspace cancel hook is polled once per threshold BFS.
func (m *Metric) pairDistances(terms []int, ws *trussindex.Workspace) (dist []float64, thr []int32, err error) {
	r := len(terms)
	// lev[j] is terminal j's bottleneck level with the current source.
	lev := ws.CountBuf(r)
	for j := 1; j < r; j++ {
		if lev[j] = m.ix.ConnectLevel(terms[0], terms[j]); lev[j] == 0 {
			return nil, nil, ErrDisconnected
		}
	}
	dist = make([]float64, r*r)
	thr = make([]int32, r*r)
	for i := range dist {
		dist[i] = Inf
	}
	// ValB under StampB maps a terminal vertex to its index.
	isTerm, termIdx := ws.StampB, ws.ValB
	isTerm.Next()
	for j, v := range terms {
		dist[j*r+j] = 0
		isTerm.Set(int32(v))
		termIdx[v] = int32(j)
	}
	hop, st := ws.ValA, ws.StampA
	queue := ws.QueueA
	maxT := float64(m.ix.MaxTruss())
	// Pairs are symmetric: terminal i only looks for the terminals after it.
	for i := 0; i+1 < r; i++ {
		src := int32(terms[i])
		row := dist[i*r : (i+1)*r]
		top := int32(0)
		for j := i + 1; j < r; j++ {
			if i > 0 {
				lev[j] = m.ix.ConnectLevel(terms[i], terms[j])
			}
			top = max(top, lev[j])
		}
		for _, t := range m.thresholds {
			if t > top {
				continue
			}
			if err := ws.Canceled(); err != nil {
				ws.QueueA = queue
				return nil, nil, err
			}
			penalty := m.gamma * (maxT - float64(t))
			st.Next()
			st.Set(src)
			hop[src] = 0
			queue = append(queue[:0], src)
			if 1+penalty >= unreachedWorst(row, lev, terms, i, st, 0) {
				break
			}
			// bound is the worst distance among the terminals after i that
			// this BFS can reach and has not: only a level cheaper than it
			// can still improve a pair.
			bound := unreachedWorst(row, lev, terms, i, st, t)
			for head := 0; head < len(queue); head++ {
				v := queue[head]
				hu := hop[v] + 1
				d := float64(hu) + penalty
				if d >= bound {
					break
				}
				nbrs, _ := m.ix.NeighborsAtLeast(int(v), t)
				for _, u := range nbrs {
					if !st.Visit(u) {
						continue
					}
					hop[u] = hu
					queue = append(queue, u)
					if !isTerm.Marked(u) || int(termIdx[u]) <= i {
						continue
					}
					if j := int(termIdx[u]); d < row[j] {
						row[j], dist[j*r+i] = d, d
						thr[i*r+j], thr[j*r+i] = t, t
					}
					bound = unreachedWorst(row, lev, terms, i, st, t)
				}
			}
		}
	}
	ws.QueueA = queue
	return dist, thr, nil
}

// unreachedWorst returns the largest entry of row among the terminals j
// after i with lev[j] >= t that st has not marked, or 0 when there are none.
func unreachedWorst(row []float64, lev []int32, terms []int, i int, st *graph.Stamp, t int32) float64 {
	worst := 0.0
	for j := i + 1; j < len(terms); j++ {
		if row[j] > worst && lev[j] >= t && !st.Marked(int32(terms[j])) {
			worst = row[j]
		}
	}
	return worst
}

// PathAtThreshold returns a shortest path (as a vertex sequence src..dst) in
// the subgraph of edges with trussness >= t, or nil if dst is unreachable.
func (m *Metric) PathAtThreshold(src, dst int, t int32) []int {
	ws := m.ix.AcquireWorkspace()
	defer ws.Release()
	return m.pathAtThreshold(src, dst, t, ws)
}

// pathAtThreshold is PathAtThreshold on workspace scratch: parent pointers
// live in ValB under StampB (unmarked = undiscovered), so only the
// traversed subgraph is touched. The returned path is freshly allocated.
func (m *Metric) pathAtThreshold(src, dst int, t int32, ws *trussindex.Workspace) []int {
	n := m.ix.Graph().N()
	if src < 0 || src >= n || dst < 0 || dst >= n {
		return nil
	}
	parent, st := ws.ValB, ws.StampB
	st.Next()
	st.Set(int32(src))
	parent[src] = -1
	queue := ws.QueueB[:0]
	queue = append(queue, int32(src))
	for head := 0; head < len(queue); head++ {
		v := int(queue[head])
		if v == dst {
			break
		}
		nbrs, _ := m.ix.NeighborsAtLeast(v, t)
		for _, u := range nbrs {
			if st.Visit(u) {
				parent[u] = int32(v)
				queue = append(queue, u)
			}
		}
	}
	ws.QueueB = queue
	if !st.Marked(int32(dst)) {
		return nil
	}
	hops := 0
	for v := dst; v != src; v = int(parent[v]) {
		hops++
	}
	path := make([]int, hops+1)
	for v, i := dst, hops; i >= 0; v, i = int(parent[v]), i-1 {
		path[i] = v
	}
	return path
}

// TrussDistance returns the exact truss distance between u and v (Inf if
// disconnected) together with the realizing threshold.
func (m *Metric) TrussDistance(u, v int) (float64, int32) {
	dist, bestT := m.DistancesFrom(u)
	if v < 0 || v >= len(dist) {
		return Inf, 0
	}
	return dist[v], bestT[v]
}

// PathMinTruss returns the minimum edge trussness along a vertex path.
func PathMinTruss(ix *trussindex.Index, path []int) int32 {
	if len(path) < 2 {
		return 0
	}
	min := int32(math.MaxInt32)
	for i := 0; i+1 < len(path); i++ {
		if t := ix.EdgeTruss(path[i], path[i+1]); t < min {
			min = t
		}
	}
	return min
}

// PathTrussDistance evaluates Definition 7 directly on an explicit path:
// len + γ(τ̄(∅) − min edge trussness). Used by tests as an oracle.
func PathTrussDistance(ix *trussindex.Index, path []int, gamma float64) float64 {
	if len(path) < 2 {
		return 0
	}
	return float64(len(path)-1) + gamma*float64(ix.MaxTruss()-PathMinTruss(ix, path))
}
