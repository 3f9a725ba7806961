package truss

import (
	"repro/internal/graph"
)

// DecomposeNaive is the retained reference implementation of the truss
// decomposition: the seed's map-based peel with a lazy (stale-entry) bucket
// queue over map[EdgeKey]int32 supports. It is deliberately independent of
// the array-based Decompose — different queue discipline, different support
// bookkeeping — and exists as a differential-testing oracle and as the
// seed-equivalent baseline for the decomposition benchmarks.
func DecomposeNaive(g *graph.Graph) *Decomposition {
	mu := graph.NewMutable(g, nil)
	m := mu.M()
	truss := make(map[graph.EdgeKey]int32, m)
	if m > 0 {
		sup := make(map[graph.EdgeKey]int32, m)
		g.ForEachEdge(func(u, v int) {
			sup[graph.Key(u, v)] = int32(mu.CountCommonNeighbors(u, v))
		})
		maxSup := int32(0)
		for _, s := range sup {
			if s > maxSup {
				maxSup = s
			}
		}
		// Bucket queue with lazy (stale) entries: an edge may sit in several
		// buckets; an entry is valid only if the edge is still present and
		// its current support matches the bucket index.
		buckets := make([][]graph.EdgeKey, maxSup+1)
		for e, s := range sup {
			buckets[s] = append(buckets[s], e)
		}
		removed := make(map[graph.EdgeKey]bool, m)
		cur := int32(0)
		level := int32(2)
		processed := 0
		for processed < m {
			for cur <= maxSup && len(buckets[cur]) == 0 {
				cur++
			}
			if cur > maxSup {
				break // defensive; cannot happen while processed < m
			}
			b := buckets[cur]
			e := b[len(b)-1]
			buckets[cur] = b[:len(b)-1]
			if removed[e] || sup[e] != cur {
				continue // stale entry
			}
			if cur+2 > level {
				level = cur + 2
			}
			truss[e] = level
			removed[e] = true
			processed++
			u, v := e.Endpoints()
			mu.CommonNeighbors(u, v, func(w int) {
				for _, f := range [2]graph.EdgeKey{graph.Key(u, w), graph.Key(v, w)} {
					if removed[f] {
						continue
					}
					if sup[f] > 0 {
						sup[f]--
						buckets[sup[f]] = append(buckets[sup[f]], f)
						if sup[f] < cur {
							cur = sup[f]
						}
					}
				}
			})
			mu.DeleteEdge(u, v)
		}
	}
	d := &Decomposition{
		G:           g,
		Truss:       make([]int32, g.M()),
		VertexTruss: make([]int32, g.N()),
	}
	for e, k := range truss {
		u, v := e.Endpoints()
		d.Truss[g.EdgeID(u, v)] = k
	}
	d.finishVertexTruss()
	return d
}
