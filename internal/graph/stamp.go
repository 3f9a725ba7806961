package graph

import (
	"math"
	"math/bits"
)

// Stamp is an epoch-versioned visit mark over a fixed ID space. A slot i is
// "marked" iff Mark[i] equals the current epoch, so clearing all marks is an
// epoch bump instead of an O(n) array fill. Pair it with a parallel value
// array to get a resettable map: the value at i is valid iff i is marked.
//
// The zero epoch is reserved (freshly allocated Mark arrays read as
// unmarked), and Next handles int32 wrap-around by re-zeroing the array —
// once every ~2 billion resets.
type Stamp struct {
	// Mark holds the epoch at which each slot was last marked. Callers test
	// and set entries directly against the epoch returned by Next.
	Mark []int32
	cur  int32
}

// NewStamp returns a Stamp over n slots, all unmarked.
func NewStamp(n int) *Stamp { return &Stamp{Mark: make([]int32, n)} }

// Len returns the size of the stamped ID space.
func (s *Stamp) Len() int { return len(s.Mark) }

// Next starts a new epoch (unmarking every slot in O(1)) and returns it.
func (s *Stamp) Next() int32 {
	s.cur++
	if s.cur == math.MaxInt32 {
		for i := range s.Mark {
			s.Mark[i] = 0
		}
		s.cur = 1
	}
	return s.cur
}

// Cur returns the current epoch. Slots are marked iff Mark[i] == Cur().
func (s *Stamp) Cur() int32 { return s.cur }

// Marked reports whether slot i is marked in the current epoch.
func (s *Stamp) Marked(i int32) bool { return s.Mark[i] == s.cur }

// Set marks slot i in the current epoch.
func (s *Stamp) Set(i int32) { s.Mark[i] = s.cur }

// Visit marks slot i and reports whether it was unmarked before — a
// test-and-set for BFS-style "first time seen" checks.
func (s *Stamp) Visit(i int32) bool {
	if s.Mark[i] == s.cur {
		return false
	}
	s.Mark[i] = s.cur
	return true
}

// BFSMarked computes hop distances from src like BFS, but with stamped
// visitation: on return, dist[v] is valid iff st.Marked(v), and the returned
// queue holds exactly the reached vertices in visit order. Unlike BFS it
// never writes (or reads) the entries of unreached vertices, so the cost is
// proportional to the traversed subgraph, not the ID space. A new stamp
// epoch is started on entry.
func BFSMarked(g Adjacency, src int, dist []int32, st *Stamp, queue []int32) []int32 {
	if mu, ok := g.(*Mutable); ok {
		// The overlay fast path iterates the base CSR directly: no
		// per-vertex interface call, and no visit closure escaping to the
		// heap once per BFS — the hot peeling loops run thousands of these.
		return bfsMarkedOverlay(mu, src, dist, st, queue)
	}
	return bfsMarkedGeneric(g, src, dist, st, queue)
}

// bfsMarkedGeneric must stay out of BFSMarked's body: its visit closure
// heap-boxes the captured queue at function entry, which would tax the fast
// path too.
func bfsMarkedGeneric(g Adjacency, src int, dist []int32, st *Stamp, queue []int32) []int32 {
	st.Next()
	queue = queue[:0]
	if !g.Present(src) {
		return queue
	}
	st.Set(int32(src))
	dist[src] = 0
	queue = append(queue, int32(src))
	var dv int32
	visit := func(u int) {
		if st.Visit(int32(u)) {
			dist[u] = dv + 1
			queue = append(queue, int32(u))
		}
	}
	for head := 0; head < len(queue); head++ {
		v := int(queue[head])
		dv = dist[v]
		g.ForEachNeighbor(v, visit)
	}
	return queue
}

func bfsMarkedOverlay(mu *Mutable, src int, dist []int32, st *Stamp, queue []int32) []int32 {
	st.Next()
	queue = queue[:0]
	if !mu.Present(src) {
		return queue
	}
	st.Set(int32(src))
	dist[src] = 0
	queue = append(queue, int32(src))
	g := mu.base
	if len(mu.live) > 0 {
		// Word-parallel: a vertex's unseen live neighbours are its live row
		// and-not the seen set, taken in ascending order — the order the CSR
		// scan below reaches them in.
		w := mu.w
		var seen [maxRowWords]uint64
		seen[src>>6] = 1 << (uint(src) & 63)
		for head := 0; head < len(queue); head++ {
			v := int(queue[head])
			dv := dist[v]
			for i, word := range mu.live[v*w : (v+1)*w] {
				word &^= seen[i]
				seen[i] |= word
				for ; word != 0; word &= word - 1 {
					u := int32(i<<6 + bits.TrailingZeros64(word))
					st.Set(u)
					dist[u] = dv + 1
					queue = append(queue, u)
				}
			}
		}
		return queue
	}
	for head := 0; head < len(queue); head++ {
		v := int(queue[head])
		dv := dist[v]
		lo, hi := g.off[v], g.off[v+1]
		for i := lo; i < hi; i++ {
			if !mu.alive.Get(g.aeid[i]) {
				continue
			}
			u := g.nbr[i]
			if st.Visit(u) {
				dist[u] = dv + 1
				queue = append(queue, u)
			}
		}
	}
	return queue
}
