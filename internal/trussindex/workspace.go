package trussindex

import (
	"context"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/truss"
)

// Process-global workspace-pool counters. Package-level (not per-Index) so
// they stay monotone across epoch publishes, which retire and rebuild the
// index — a requirement for exposing them as Prometheus counters.
var (
	poolAcquires atomic.Int64 // AcquireWorkspace calls
	poolFresh    atomic.Int64 // acquires that missed the pool and allocated
	poolReleases atomic.Int64 // Release calls
)

// ReadPoolStats returns the cumulative workspace-pool counters: total
// acquires, pool misses that allocated a fresh workspace, and releases.
func ReadPoolStats() (acquires, fresh, releases int64) {
	return poolAcquires.Load(), poolFresh.Load(), poolReleases.Load()
}

// Workspace is the pooled per-query scratch of an Index: epoch-stamped
// visit marks and value arrays and reusable vertex and edge lists. It holds
// no overlay of the indexed graph. A reset is an epoch bump, so
// steady-state queries neither allocate nor scan O(n + m) of the index. A
// query that peels also borrows an Expansion, which holds the graph it
// peels and is pooled apart from any index.
//
// Ownership rules:
//   - A Workspace belongs to the Index that created it and must only be
//     passed to that index's methods (and to core/steiner helpers running a
//     query against it).
//   - A Workspace serves one query at a time; concurrent queries each
//     acquire their own (AcquireWorkspace is cheap after warm-up).
//   - What a method returns in workspace storage (FindG0W's and
//     FindKTrussW's Expansion) is valid until the next query on the
//     workspace or its Release; core.Search copies its answer out before
//     either.
//   - Release returns the workspace to the pool; using it afterwards is a
//     data race.
type Workspace struct {
	ix *Index

	// ctx is the cancellation hook of the query currently running on this
	// workspace (nil when the query is not cancellable). Deep query loops
	// poll Canceled() at peel-round/BFS-level granularity instead of
	// threading a context through every helper signature.
	ctx context.Context

	// reused records whether this workspace came warm from the pool (true)
	// or was freshly allocated by this acquire (false); surfaced in
	// per-query stats.
	reused bool

	// StampA/StampB/StampC are independent vertex-indexed stamps. Query code
	// pairs them with ValA/ValB/ValC: the value at v is meaningful iff the
	// paired stamp marks v in its current epoch. Three suffice because no
	// query path needs more than three simultaneous vertex maps (e.g.
	// greedyPeel: BFS distances + query membership + live-list positions).
	StampA, StampB, StampC *graph.Stamp
	ValA, ValB, ValC       []int32

	// QueueA/QueueB are reusable vertex queues (BFS frontiers, victim
	// lists). Code that grows them must store the grown slice back.
	QueueA, QueueB []int32

	// Victims is a reusable vertex or edge list: a peel round's victims, and
	// during the Steiner seed the union of its paths as sorted arcs v*n+u.
	Victims []int

	// Maintain is the reusable scratch of the k-truss maintenance cascade.
	Maintain truss.MaintainScratch

	// expansion is the peel scratch borrowed by Expansion, nil until then.
	expansion *Expansion

	// countBuf backs CountBuf.
	countBuf []int32
}

// AcquireWorkspace returns a workspace for this index, creating one if the
// pool is empty. Pair it with Release.
func (ix *Index) AcquireWorkspace() *Workspace {
	poolAcquires.Add(1)
	ix.freeMu.Lock()
	if n := len(ix.free); n > 0 {
		ws := ix.free[n-1]
		ix.free[n-1] = nil
		ix.free = ix.free[:n-1]
		ix.freeMu.Unlock()
		ws.reused = true
		return ws
	}
	ix.freeMu.Unlock()
	poolFresh.Add(1)
	n := ix.g.N()
	return &Workspace{
		ix:     ix,
		StampA: graph.NewStamp(n),
		StampB: graph.NewStamp(n),
		StampC: graph.NewStamp(n),
		ValA:   make([]int32, n),
		ValB:   make([]int32, n),
		ValC:   make([]int32, n),
	}
}

// Release returns the workspace to its index's pool, dropping the query
// context so a pooled workspace never pins a caller's context alive, and a
// borrowed Expansion to its own pool, so it outlives this index.
func (ws *Workspace) Release() {
	poolReleases.Add(1)
	ws.ctx = nil
	if ws.expansion != nil {
		expansions.Put(ws.expansion)
		ws.expansion = nil
	}
	ix := ws.ix
	ix.freeMu.Lock()
	ix.free = append(ix.free, ws)
	ix.freeMu.Unlock()
}

// SetContext installs the cancellation context for the query about to run.
// A context that can never be cancelled (context.Background and friends,
// whose Done channel is nil) is stored as nil so Canceled stays a single
// nil check on the uncancellable fast path.
func (ws *Workspace) SetContext(ctx context.Context) {
	if ctx == nil || ctx.Done() == nil {
		ws.ctx = nil
		return
	}
	ws.ctx = ctx
}

// Canceled returns the installed context's error (context.Canceled or
// context.DeadlineExceeded) once it fires, nil otherwise. Query loops call
// this every peel round / BFS level / cancelCheckInterval vertices — often
// enough for prompt cancellation, rarely enough to stay off the per-edge
// hot path.
func (ws *Workspace) Canceled() error {
	if ws.ctx == nil {
		return nil
	}
	return ws.ctx.Err()
}

// Reused reports whether this workspace came warm from the pool at its last
// acquire (false = this query paid the one-time allocation cost).
func (ws *Workspace) Reused() bool { return ws.reused }

// cancelCheckInterval is the vertex-processing stride between Canceled()
// polls inside BFS-style loops: large enough that the poll (one atomic load
// behind ctx.Err) vanishes against the per-vertex work, small enough that
// cancellation latency stays sub-millisecond on any graph.
const cancelCheckInterval = 1 << 12

// Index returns the owning index.
func (ws *Workspace) Index() *Index { return ws.ix }

// Expansion is the scratch of the part of a query that peels: the graph it
// peels as a compact relabelled graph — G0 for Basic, BulkDelete and
// TrussOnly (FindG0W, FindKTrussW), the η-bounded expansion for LCTC — the
// storage of its capped decomposition, and the peel's overlays and dense
// per-edge and per-vertex buffers. Nothing in it is sized by the index — the
// graph it holds bounds all of it — so it is pooled process-wide and survives
// the epoch publishes that retire an index together with its workspace pool.
type Expansion struct {
	graph.Compact
	// Decompose backs truss.DecomposeCapped on the compact graph.
	Decompose truss.Scratch
	// Q holds the query in local vertex IDs (SetQuery).
	Q []int
	// Hist, Cut and Removed are the peel's logs: the graph query distance of
	// each round, how many edges Removed held when it was measured, and the
	// edges deleted, in deletion order. Code that grows them must store the
	// grown slice back.
	Hist, Cut, Removed []int32

	shells   [2]*graph.Mutable
	shellCur int
	whole    *graph.Mutable
	sup      []int32
	sumDist  []int64
}

// SetQuery records q, in source vertex IDs, as x.Q in local ones.
func (x *Expansion) SetQuery(q []int) {
	x.Q = x.Q[:0]
	for _, v := range q {
		x.Q = append(x.Q, x.Local(v))
	}
}

// Shell returns an empty overlay of the compact graph. Two shells are kept
// and handed out alternately, matching the worst simultaneous need of the
// query paths; a third request resets the oldest shell, so callers must not
// hold more than two at once.
func (x *Expansion) Shell() *graph.Mutable {
	i := x.shellCur & 1
	x.shellCur++
	if x.shells[i] == nil {
		x.shells[i] = graph.NewMutableShell(&x.G)
	} else {
		x.shells[i].Reset(&x.G)
	}
	return x.shells[i]
}

// Whole returns an overlay holding all of the compact graph, for a peel to
// delete from. It is one pooled overlay, refilled by every call.
func (x *Expansion) Whole() *graph.Mutable {
	if x.whole == nil {
		x.whole = graph.NewMutableShell(&x.G)
	} else {
		x.whole.Reset(&x.G)
	}
	x.whole.Fill()
	return x.whole
}

// PeelBuffers returns the per-edge support buffer and the per-vertex
// Σ_q dist(v, q) buffer of the §5.2 tie-break, covering the compact graph.
func (x *Expansion) PeelBuffers() ([]int32, []int64) {
	if m := x.G.M(); len(x.sup) < m {
		x.sup = make([]int32, m)
	}
	if n := x.G.N(); len(x.sumDist) < n {
		x.sumDist = make([]int64, n)
	}
	return x.sup, x.sumDist
}

var expansions sync.Pool // *Expansion

// Expansion returns the peel scratch of the query running on ws, borrowing
// it from the process-wide pool on first use; Release hands it back.
func (ws *Workspace) Expansion() *Expansion {
	if ws.expansion == nil {
		x, ok := expansions.Get().(*Expansion)
		if !ok {
			x = new(Expansion)
		}
		ws.expansion = x
	}
	return ws.expansion
}

// CountBuf returns a zeroed int32 buffer of the given length, reused
// across queries (counting-sort buckets and similar small scratch).
func (ws *Workspace) CountBuf(n int) []int32 {
	if cap(ws.countBuf) < n {
		ws.countBuf = make([]int32, n)
		return ws.countBuf
	}
	buf := ws.countBuf[:n]
	for i := range buf {
		buf[i] = 0
	}
	return buf
}
