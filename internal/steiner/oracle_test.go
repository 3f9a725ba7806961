package steiner

import (
	"math"

	"repro/internal/trussindex"
)

// The exhaustive truss-distance oracles the tests hold the query path's
// pairDistances and Steiner tree to.

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
