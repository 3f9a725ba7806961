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
// visit marks and value arrays, a stamped union-find, reusable BFS queues
// and level buckets, and the PeelScratch of the indexed graph (resettable
// shell overlays, the dense per-edge buffers of the peeling loops). All
// resets are O(touched) — an epoch bump for the stamps, touched-word
// clearing for the shells — so steady-state queries neither allocate nor
// scan O(n + m). An LCTC query also borrows an Expansion, which is pooled
// apart from any index.
//
// Ownership rules:
//   - A Workspace belongs to the Index that created it and must only be
//     passed to that index's methods (and to core/steiner helpers running a
//     query against it).
//   - A Workspace serves one query at a time; concurrent queries each
//     acquire their own (AcquireWorkspace is cheap after warm-up).
//   - Query results never alias workspace storage: anything returned to the
//     caller is freshly allocated, so releasing the workspace — or issuing
//     the next query — cannot corrupt earlier results.
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

	// Victims and Hist are the peeling loop's per-iteration victim list and
	// per-level query-distance history.
	Victims []int
	Hist    []int32

	// Peel is the peeling scratch sized by the indexed graph.
	Peel PeelScratch

	// Maintain is the reusable scratch of the k-truss maintenance cascade.
	Maintain truss.MaintainScratch

	// expansion is the LCTC scratch borrowed by Expansion, nil until then.
	expansion *Expansion

	// dsu is the stamped union-find of FindG0.
	dsu stampedDSU

	// levels holds FindG0's per-trussness schedule buckets.
	levels [][]int32

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
		Peel:   PeelScratch{g: ix.g},
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

// Shell returns an empty resettable edge-bitset overlay of the indexed
// graph; see PeelScratch.Shell for how many may be held at once.
func (ws *Workspace) Shell() *graph.Mutable { return ws.Peel.Shell() }

// PeelScratch is the part of a query's scratch that is sized by the graph
// being peeled, not by the index: overlays of that graph and its dense
// per-edge and per-vertex buffers. A Workspace has one for the indexed graph
// (Basic, BulkDelete and everything that assembles subgraphs of it); an
// Expansion has one for its compact graph. Buffers appear on first use and
// follow the graph when a rebuilt Compact changes size.
type PeelScratch struct {
	g *graph.Graph

	// shells are resettable overlays of g, handed out round-robin by Shell.
	shells   [2]*graph.Mutable
	shellCur int
	// cloneBuf backs CloneOf.
	cloneBuf *graph.Mutable

	edgeStamp    *graph.Stamp
	edgeVal, sup []int32
	sumDist      []int64
}

// Shell returns an empty resettable overlay of the graph. Two shells are
// kept and handed out alternately, matching the worst simultaneous need of
// the query paths (e.g. greedyPeel's reconstruction overlay while the graph
// it peels is still parked in the other); a third concurrent request would
// reset the oldest shell, so callers must not hold more than two at once.
func (p *PeelScratch) Shell() *graph.Mutable {
	i := p.shellCur & 1
	p.shellCur++
	if p.shells[i] == nil {
		p.shells[i] = graph.NewResettableShell(p.g)
	} else {
		p.shells[i].Reset(p.g)
	}
	return p.shells[i]
}

// CloneOf returns a destructive working copy of mu, an overlay of the
// graph, in the pooled clone buffer.
func (p *PeelScratch) CloneOf(mu *graph.Mutable) *graph.Mutable {
	if p.cloneBuf == nil {
		p.cloneBuf = graph.NewMutableShell(p.g)
	}
	mu.CloneInto(p.cloneBuf)
	return p.cloneBuf
}

// EdgeScratch returns the per-edge stamp, value and support buffers, each
// covering the graph's edge IDs.
func (p *PeelScratch) EdgeScratch() (*graph.Stamp, []int32, []int32) {
	if m := p.g.M(); p.edgeStamp == nil || p.edgeStamp.Len() < m {
		p.edgeStamp = graph.NewStamp(m)
		p.edgeVal = make([]int32, m)
		p.sup = make([]int32, m)
	}
	return p.edgeStamp, p.edgeVal, p.sup
}

// SumDist returns the per-vertex int64 buffer of the §5.2 peeling tie-break
// (Σ_q dist(v, q)).
func (p *PeelScratch) SumDist() []int64 {
	if n := p.g.N(); len(p.sumDist) < n {
		p.sumDist = make([]int64, n)
	}
	return p.sumDist
}

// Expansion is the scratch of the part of an LCTC query that runs after the
// seed: the η-bounded expansion as a compact relabelled graph, the storage of
// its capped decomposition, and the PeelScratch of that graph. Nothing in it
// is sized by the index — η bounds all of it — so it is pooled process-wide
// and survives the epoch publishes that retire an index together with its
// workspace pool.
type Expansion struct {
	graph.Compact
	// Decompose backs truss.DecomposeCapped on the compact graph.
	Decompose truss.Scratch
	// Peel is the peeling scratch of the compact graph.
	Peel PeelScratch
	// Q holds the query in local vertex IDs.
	Q []int
}

var expansions sync.Pool // *Expansion

// Expansion returns the LCTC scratch of the query running on ws, borrowing
// it from the process-wide pool on first use; Release hands it back.
func (ws *Workspace) Expansion() *Expansion {
	if ws.expansion == nil {
		x, ok := expansions.Get().(*Expansion)
		if !ok {
			x = new(Expansion)
			x.Peel.g = &x.G
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

// levelQueues returns the per-level schedule buckets for levels [0, k],
// each truncated to empty. Buckets above k may hold stale leftovers from an
// earlier query that descended past its stopping level; they are truncated
// lazily the next time a larger k needs them.
func (ws *Workspace) levelQueues(k int32) [][]int32 {
	if int(k)+1 > len(ws.levels) {
		grown := make([][]int32, k+1)
		copy(grown, ws.levels)
		ws.levels = grown
	}
	for l := int32(0); l <= k; l++ {
		if ws.levels[l] != nil {
			ws.levels[l] = ws.levels[l][:0]
		}
	}
	return ws.levels[:k+1]
}

// dsuReset returns the stamped union-find, all singletons.
func (ws *Workspace) dsuReset() *stampedDSU {
	d := &ws.dsu
	if d.stamp == nil {
		n := ws.ix.g.N()
		d.stamp = graph.NewStamp(n)
		d.parent = make([]int32, n)
		d.rank = make([]int8, n)
	}
	d.stamp.Next()
	return d
}

// stampedDSU is a union-find over vertex IDs whose "all singletons" reset
// is an epoch bump: a vertex not marked in the current epoch is implicitly
// its own root with rank zero.
type stampedDSU struct {
	stamp  *graph.Stamp
	parent []int32
	rank   []int8
}

func (d *stampedDSU) ensure(x int32) {
	if d.stamp.Visit(x) {
		d.parent[x] = x
		d.rank[x] = 0
	}
}

func (d *stampedDSU) find(x int32) int32 {
	d.ensure(x)
	for d.parent[x] != x {
		d.parent[x] = d.parent[d.parent[x]]
		x = d.parent[x]
	}
	return x
}

func (d *stampedDSU) union(a, b int32) {
	ra, rb := d.find(a), d.find(b)
	if ra == rb {
		return
	}
	if d.rank[ra] < d.rank[rb] {
		ra, rb = rb, ra
	}
	d.parent[rb] = ra
	if d.rank[ra] == d.rank[rb] {
		d.rank[ra]++
	}
}

func (d *stampedDSU) sameSet(q []int) bool {
	if len(q) == 0 {
		return true
	}
	r := d.find(int32(q[0]))
	for _, v := range q[1:] {
		if d.find(int32(v)) != r {
			return false
		}
	}
	return true
}
