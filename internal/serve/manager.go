// Package serve is the live serving subsystem: a concurrency-safe index
// manager that ingests a stream of edge insertions and deletions while
// queries keep running, HTAP-style. A single writer goroutine owns the live
// graph and applies incremental truss maintenance (the dense relax-down
// cascade for deletions, localized shell re-decomposition for insertions);
// immutable trussindex snapshots are published through an epoch/RCU-style
// atomic pointer with refcounted retirement, so the query path never takes
// a lock and never observes a half-applied batch. The publisher re-freezes
// only when the dirty-edge count crosses a threshold or a deadline fires,
// amortizing index construction over update batches. When a rebase falls
// past Options.RebuildFraction into a full re-decomposition, the rebuild
// runs truss.DecomposeParallel, so the writer stall — and with it the
// maximum snapshot staleness — is bounded by the parallel build time rather
// than a single-core peel.
package serve

import (
	"context"
	"errors"
	"io"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/admit"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/steiner"
	"repro/internal/telemetry"
	"repro/internal/truss"
	"repro/internal/trussindex"
	"repro/internal/wal"
)

// ErrClosed is returned by update entry points after Close.
var ErrClosed = errors.New("serve: manager closed")

// ErrDegraded is returned by update entry points after a write-ahead log
// failure has switched the manager to read-only degraded mode: queries keep
// serving the last published snapshot, but no update can be made durable, so
// none is accepted. The process must be restarted (recovering from the log)
// to leave this state.
var ErrDegraded = errors.New("serve: degraded (write-ahead log failure), updates disabled")

// ErrOverloaded is returned by Query/QueryBatch when admission control
// sheds the request before any work runs: the gate is at capacity and
// either the admission queue is full or the request's estimated start time
// already overruns its context deadline. Match with errors.Is; the HTTP
// layer maps it to 429 with a Retry-After hint (see admit.OverloadError).
var ErrOverloaded = admit.ErrOverloaded

// Op selects the kind of an Update.
type Op uint8

const (
	// OpAdd inserts an undirected edge (idempotent).
	OpAdd Op = iota
	// OpRemove deletes an undirected edge (idempotent).
	OpRemove
)

// Update is one streamed edge mutation.
type Update struct {
	Op   Op
	U, V int
}

// Options tunes the manager. The zero value selects the defaults.
type Options struct {
	// QueueSize bounds the update queue; Apply blocks (backpressure) when
	// it is full. Default 1024.
	QueueSize int
	// MaxBatch caps how many queued updates the writer applies before it
	// re-checks the publish conditions. Default 256.
	MaxBatch int
	// PublishDirty publishes a new snapshot once at least this many updates
	// have been applied since the last epoch. Default 64.
	PublishDirty int
	// PublishInterval is the staleness deadline: a snapshot is published at
	// the next tick whenever any update is pending, even below
	// PublishDirty. Default 200ms.
	PublishInterval time.Duration
	// RebuildFraction: when a rebase (foreign edges forced a new base
	// graph) carries more new edges than this fraction of the edge count,
	// the publisher falls back to a full re-decomposition instead of
	// inserting them one at a time into the incremental labels.
	// Default 0.2.
	RebuildFraction float64
	// OnPublish, when set, is called synchronously by the writer goroutine
	// after each epoch handoff, with the new snapshot still referenced by
	// the manager. Meant for tests and instrumentation; it must not call
	// Flush or Close.
	OnPublish func(*Snapshot)
	// WAL, when set, makes updates durable: the writer appends each drained
	// batch to the log and fsyncs (group commit) *before* applying it, so
	// every update that reaches the index is recoverable by replay. The
	// manager takes ownership and closes the log in Close. A log failure
	// switches the manager to read-only degraded mode (see ErrDegraded);
	// the failing batch is dropped before application, never half-applied.
	// Use OpenDurable to also get crash recovery on startup.
	WAL *wal.Log
	// CheckpointEvery writes a WAL checkpoint (full index snapshot, after
	// which covered segments are pruned) every this many publishes.
	// Default 32. Ignored without WAL.
	CheckpointEvery int
	// Admission configures the overload-protection layer every Query and
	// QueryBatch routes through: GOMAXPROCS-scaled concurrency limiting,
	// a bounded deadline-aware admission queue with per-tenant round-robin
	// fairness, and the epoch-keyed result cache. The zero value enables it
	// with defaults; set Admission.Disabled to bypass the gate (the cache
	// still applies unless Admission.CacheEntries < 0).
	Admission admit.Config
	// Metrics, when set, registers the manager's metric families
	// (ctc_epoch*, ctc_admission_*, ctc_cache_*, ctc_wal_*, ...) in the
	// registry at construction. Subsystem counters are read at scrape time
	// (func metrics); latency distributions record into histograms. One
	// registry must serve at most one manager (duplicate names panic).
	Metrics *telemetry.Registry
	// Tracer, when set, receives one QueryRecord per Query (and per
	// QueryBatch item): per-algo/per-tenant latency histograms, outcome
	// counters, phase breakdowns, and the slow-query log. Nil disables
	// per-query tracing at the cost of a single pointer check.
	Tracer *telemetry.Tracer
	// Logger, when set, receives structured writer-loop events: publishes
	// (Debug), full rebuilds and checkpoints (Info), fsync stalls and
	// rate-limited admission sheds (Warn), degraded transitions (Error).
	Logger *slog.Logger
}

func (o Options) withDefaults() Options {
	if o.QueueSize <= 0 {
		o.QueueSize = 1024
	}
	if o.MaxBatch <= 0 {
		o.MaxBatch = 256
	}
	if o.PublishDirty <= 0 {
		o.PublishDirty = 64
	}
	if o.PublishInterval <= 0 {
		o.PublishInterval = 200 * time.Millisecond
	}
	if o.RebuildFraction <= 0 {
		o.RebuildFraction = 0.2
	}
	if o.CheckpointEvery <= 0 {
		o.CheckpointEvery = 32
	}
	return o
}

// Stats is a point-in-time view of the manager, cheap enough for a /stats
// endpoint polled under load.
type Stats struct {
	Epoch         int64         `json:"epoch"`
	SnapshotAge   time.Duration `json:"snapshot_age"`
	FullRebuild   bool          `json:"snapshot_full_rebuild"`
	Vertices      int           `json:"n"`
	Edges         int           `json:"m"`
	MaxTruss      int32         `json:"max_truss"`
	Dirty         int64         `json:"dirty"`
	QueueLen      int           `json:"queue_len"`
	Publishes     int64         `json:"publishes"`
	FullRebuilds  int64         `json:"full_rebuilds"`
	LiveSnapshots int64         `json:"live_snapshots"`
	Retired       int64         `json:"retired_snapshots"`
	Adds          int64         `json:"applied_adds"`
	Removes       int64         `json:"applied_removes"`
	Rejected      int64         `json:"rejected_ops"`

	// Overload-protection observability (PR 7). QueriesExecuted counts
	// queries that actually acquired a snapshot and ran; it must always
	// equal QueriesAdmitted minus the queries still in flight — a rejected
	// request consuming a workspace would break that invariant, and the
	// overload harness fails the build on it.
	QueriesAdmitted  int64                           `json:"queries_admitted"`
	QueriesExecuted  int64                           `json:"queries_executed"`
	ShedDeadline     int64                           `json:"queries_shed_deadline"`
	ShedQueueFull    int64                           `json:"queries_shed_queue_full"`
	CanceledInQueue  int64                           `json:"queries_canceled_in_queue"`
	QueryQueueDepth  int                             `json:"query_queue_depth"`
	QueryInflight    int                             `json:"query_inflight"`
	Overloaded       bool                            `json:"overloaded"`
	EstCostNSPerUnit int64                           `json:"est_cost_ns_per_unit"`
	CacheHits        int64                           `json:"cache_hits"`
	CacheMisses      int64                           `json:"cache_misses"`
	CacheEntries     int                             `json:"cache_entries"`
	CacheHitRatio    float64                         `json:"cache_hit_ratio"`
	Tenants          map[string]admit.TenantCounters `json:"tenants,omitempty"`

	// Durability observability; zero values when no WAL is configured.
	WALEnabled       bool   `json:"wal_enabled"`
	Degraded         bool   `json:"degraded"`
	WALLastError     string `json:"wal_last_error,omitempty"`
	WALLastSeq       uint64 `json:"wal_last_seq"`
	WALDurableSeq    uint64 `json:"wal_durable_seq"`
	WALCheckpointSeq uint64 `json:"wal_checkpoint_seq"`
	WALSegments      int    `json:"wal_segments"`
	WALBytes         int64  `json:"wal_bytes"`
	WALAppends       int64  `json:"wal_appends"`
	WALSyncs         int64  `json:"wal_syncs"`
	WALLastFsyncUS   int64  `json:"wal_last_fsync_us"`
	WALDropped       int64  `json:"wal_dropped_updates"`
}

type msg struct {
	up    Update
	flush chan struct{}
}

// Manager owns the live graph and publishes query snapshots. Create with
// NewManager or NewManagerFromIndex, feed updates through Apply, read with
// Acquire/Release, and Close when done (the last snapshot stays queryable).
type Manager struct {
	opts Options
	cur  atomic.Pointer[Snapshot]

	msgs chan msg
	quit chan struct{}
	done chan struct{}

	// sendMu serializes enqueueing against Close: senders hold the read
	// side, Close takes the write side before closing quit, so an update
	// acknowledged by Apply/Offer/Flush is guaranteed to be drained by the
	// writer (never stranded in the channel). This lock is on the update
	// path only — queries go through Acquire, which stays lock-free.
	sendMu sync.RWMutex
	closed bool // guarded by sendMu

	// Writer-goroutine state: the incremental decomposition over the
	// current base graph, inserts that fall outside its edge-ID space
	// (applied at the next rebase), and the count of applied-but-
	// unpublished updates.
	inc     *truss.Incremental
	pending map[graph.EdgeKey]bool
	dirty   int
	// epochBase floors the next installed epoch: recovery sets it so the
	// post-replay publish lands at the WAL's last sequence number, keeping
	// epoch == WAL seq across restarts. Zero for a fresh manager.
	epochBase int64
	// sinceCkpt counts publishes since the last WAL checkpoint.
	sinceCkpt int

	// Counters shared with readers.
	dirtyGauge atomic.Int64
	publishes  atomic.Int64
	fulls      atomic.Int64
	adds       atomic.Int64
	removes    atomic.Int64
	rejected   atomic.Int64
	retired    atomic.Int64
	liveSnaps  atomic.Int64

	// Degraded-mode state: set by the writer on a WAL failure, read by the
	// update entry points and /stats.
	degraded   atomic.Bool
	walErr     atomic.Value // string: the failure that degraded the manager
	walDropped atomic.Int64

	// Overload-protection layer (PR 7): every Query/QueryBatch passes the
	// admission gate before it may acquire a snapshot reference or a pooled
	// workspace, consults the epoch-keyed result cache first, and feeds the
	// cost estimator's calibration on completion. execQ counts queries that
	// actually reached a snapshot — the overload harness asserts it equals
	// the gate's admitted count, proving shed requests consumed nothing.
	gate  *admit.Controller
	cache *admit.Cache
	est   *admit.Estimator
	execQ atomic.Int64

	// Telemetry plane (PR 8): all optional. tracer/logger are read-only
	// after construction; metrics holds the recording histogram handles
	// (nil-safe when Options.Metrics is unset); lastShedLog rate-limits the
	// shed warning.
	tracer      *telemetry.Tracer
	logger      *slog.Logger
	metrics     managerMetrics
	lastShedLog atomic.Int64
}

// NewManager builds the epoch-1 snapshot from g (running a full truss
// decomposition) and starts the writer goroutine.
func NewManager(g *graph.Graph, opts Options) *Manager {
	return newManager(truss.NewIncremental(g), nil, opts)
}

// NewManagerFromIndex starts from a prebuilt (e.g. deserialized) index
// without re-decomposing: the index's graph and labels seed both the
// epoch-1 snapshot and the live state.
func NewManagerFromIndex(ix *trussindex.Index, opts Options) *Manager {
	return newManager(incFromIndex(ix), ix, opts)
}

// incFromIndex resumes incremental maintenance from a deserialized index's
// graph and labels without re-decomposing.
func incFromIndex(ix *trussindex.Index) *truss.Incremental {
	d := ix.Decomposition()
	return truss.ResumeIncremental(
		graph.NewMutable(ix.Graph(), nil),
		append([]int32(nil), d.Truss...),
	)
}

func newManager(inc *truss.Incremental, ix0 *trussindex.Index, opts Options) *Manager {
	m := newStoppedManager(inc, ix0, 0, opts)
	m.start()
	return m
}

// newStoppedManager wires the writer state and installs the first epoch
// (epochBase+1): the provided index when resuming from one, otherwise a
// fresh build of inc's state. The writer goroutine is NOT started — the
// recovery path replays the WAL into the stopped manager first; call start
// when the state is ready to serve updates.
func newStoppedManager(inc *truss.Incremental, ix0 *trussindex.Index, epochBase int64, opts Options) *Manager {
	m := &Manager{
		opts:      opts.withDefaults(),
		inc:       inc,
		pending:   make(map[graph.EdgeKey]bool),
		epochBase: epochBase,
	}
	m.gate = admit.NewController(m.opts.Admission)
	cacheMax := m.opts.Admission.CacheEntries
	if cacheMax == 0 {
		cacheMax = 1024
	}
	m.cache = admit.NewCache(cacheMax)
	m.est = admit.NewEstimator(m.opts.Admission.InitialCostNS)
	m.msgs = make(chan msg, m.opts.QueueSize)
	m.quit = make(chan struct{})
	m.done = make(chan struct{})
	m.tracer = m.opts.Tracer
	m.logger = m.opts.Logger
	if m.opts.Metrics != nil {
		// Before the first publish and before WAL recovery, so the initial
		// build and replay-time fsyncs land in the histograms.
		m.registerMetrics(m.opts.Metrics)
	}
	if ix0 != nil {
		m.install(ix0, ix0.Graph(), false)
	} else {
		m.publish()
	}
	return m
}

func (m *Manager) start() { go m.run() }

// send enqueues mg unless the manager is closed. A true return guarantees
// the writer will drain the message (the close sequence waits out in-flight
// senders before stopping).
func (m *Manager) send(mg msg) bool {
	m.sendMu.RLock()
	defer m.sendMu.RUnlock()
	if m.closed {
		return false
	}
	m.msgs <- mg
	return true
}

// Apply enqueues one update, blocking while the bounded queue is full.
// Returns ErrDegraded once a WAL failure has made the manager read-only.
func (m *Manager) Apply(up Update) error {
	if m.degraded.Load() {
		return ErrDegraded
	}
	if !m.send(msg{up: up}) {
		return ErrClosed
	}
	return nil
}

// Offer enqueues one update without blocking; reports false if the queue is
// full, the manager is closed, or the manager is degraded (load-shedding
// entry point).
func (m *Manager) Offer(up Update) bool {
	if m.degraded.Load() {
		return false
	}
	m.sendMu.RLock()
	defer m.sendMu.RUnlock()
	if m.closed {
		return false
	}
	select {
	case m.msgs <- msg{up: up}:
		return true
	default:
		return false
	}
}

// Flush blocks until every update enqueued before the call has been applied
// and, if any state changed, a fresh snapshot has been published. It returns
// ErrDegraded if the manager is (or becomes) degraded, in which case updates
// enqueued before the call may have been dropped rather than applied.
func (m *Manager) Flush() error {
	ack := make(chan struct{})
	if !m.send(msg{flush: ack}) {
		return ErrClosed
	}
	<-ack
	if m.degraded.Load() {
		return ErrDegraded
	}
	return nil
}

// Degraded reports whether a WAL failure has made the manager read-only.
func (m *Manager) Degraded() bool { return m.degraded.Load() }

// Close stops the writer after draining the queue and publishing any
// remaining changes, then closes the WAL if one was configured (the manager
// owns it). The final snapshot remains acquirable; updates after Close fail
// with ErrClosed. Safe to call more than once.
func (m *Manager) Close() {
	m.sendMu.Lock()
	already := m.closed
	m.closed = true
	m.sendMu.Unlock()
	if !already {
		close(m.quit)
	}
	<-m.done
	if !already && m.opts.WAL != nil {
		_ = m.opts.WAL.Close()
	}
}

// Query answers one community search against the latest published epoch,
// routed through the overload-protection layer:
//
//  1. an already-cancelled ctx is rejected before anything else — it never
//     touches the snapshot refcount or the workspace pool;
//  2. validation and the cache lookup run against the current snapshot
//     *without* taking a reference (its graph and index are immutable, and
//     a shed request must stay refcount-free);
//  3. a cache hit under the current epoch returns immediately, bypassing
//     admission — cached answers cost no capacity, which is what keeps
//     repeat-heavy traffic served even while the gate is shedding;
//  4. otherwise the request passes the admission gate (deadline-aware,
//     per-tenant fair; ErrOverloaded when shed) before the snapshot is
//     acquired and the search runs.
//
// The snapshot's epoch is stamped into the result's stats, so callers can
// correlate answers with /stats staleness. Cancellation flows through ctx
// into the search (a disconnected HTTP client sheds its in-flight query and
// frees its queue slot); the snapshot reference is released even on
// cancellation, so retirement is never blocked by abandoned queries.
//
// With Options.Tracer set, every call is also recorded into the telemetry
// plane (outcome counters, latency histograms, the slow-query log); the
// instrumentation is two clock reads and a handful of atomic adds — no
// allocations, no locks.
func (m *Manager) Query(ctx context.Context, req core.Request) (*core.Result, error) {
	if m.tracer == nil {
		return m.query(ctx, req)
	}
	t0 := time.Now()
	res, err := m.query(ctx, req)
	m.observeQuery(req, res, err, time.Since(t0))
	return res, err
}

func (m *Manager) query(ctx context.Context, req core.Request) (*core.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	cur := m.cur.Load()
	if err := req.Validate(cur.g.N()); err != nil {
		return nil, err
	}
	if res, cerr, ok := m.cache.Get(cur.epoch, req); ok {
		return cachedResult(res, cerr, req)
	}
	units := m.est.Units(cur.ix, req)
	t0 := time.Now()
	release, aerr := m.gate.Acquire(ctx, req.Tenant, m.est.Duration(units))
	if aerr != nil {
		return nil, aerr
	}
	defer release()
	wait := time.Since(t0)

	snap := m.Acquire()
	defer snap.Release()
	m.execQ.Add(1)
	cpu := pinCPU() // a CPU of its own for the search: cpuslot_linux.go
	defer cpu.unpin()
	e0 := time.Now()
	res, err := snap.Query(ctx, req)
	m.est.Observe(units, time.Since(e0))
	if err != nil {
		if cacheableErr(err) {
			m.cache.Put(snap.epoch, req, nil, err)
		}
		return nil, err
	}
	res.Stats.QueueWait = wait
	res.Stats.Tenant = req.Tenant
	m.cache.Put(snap.epoch, req, res, nil)
	return res, nil
}

// cachedResult materializes a cache hit: the stored Result is shared, so
// the caller gets a shallow copy with per-request stats restamped (the
// phase timings keep describing the execution that populated the entry).
func cachedResult(res *core.Result, err error, req core.Request) (*core.Result, error) {
	if err != nil {
		return nil, err
	}
	cp := *res
	cp.Stats.CacheHit = true
	cp.Stats.QueueWait = 0
	cp.Stats.Tenant = req.Tenant
	return &cp, nil
}

// cacheableErr reports whether a query failure is a deterministic property
// of the epoch (and therefore cacheable): the "no such community" shapes.
// Cancellation and internal errors are never cached.
func cacheableErr(err error) bool {
	return errors.Is(err, trussindex.ErrNoCommunity) ||
		errors.Is(err, truss.ErrNoCommunity) ||
		errors.Is(err, steiner.ErrDisconnected)
}

// QueryBatch answers the requests in order against one latest-epoch
// snapshot on one pooled workspace (see core.Searcher.SearchBatch); every
// result is stamped with the snapshot's epoch, so the batch is also an
// atomic read — all answers describe the same graph state. The batch
// passes the admission gate once, with the summed cost estimate of its
// cache misses; individual cache hits are filled in without consuming
// capacity.
//
// With Options.Tracer set, each item is recorded individually (using its
// own phase breakdown; the total for an item is its pipeline time plus the
// batch's shared queue wait).
func (m *Manager) QueryBatch(ctx context.Context, reqs []core.Request) ([]core.BatchItem, error) {
	items, err := m.queryBatch(ctx, reqs)
	if m.tracer != nil {
		for i := range items {
			res := items[i].Result
			total := time.Duration(0)
			if res != nil {
				total = res.Stats.TotalWithQueue()
			}
			m.observeQuery(reqs[i], res, items[i].Err, total)
		}
	}
	return items, err
}

func (m *Manager) queryBatch(ctx context.Context, reqs []core.Request) ([]core.BatchItem, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	items := make([]core.BatchItem, len(reqs))
	if len(reqs) == 0 {
		return items, nil
	}
	cur := m.cur.Load()
	n := cur.g.N()
	var missIdx []int
	var units int64
	var tenant string
	for i := range reqs {
		if reqs[i].Tenant != "" {
			tenant = reqs[i].Tenant
		}
		if err := reqs[i].Validate(n); err != nil {
			items[i].Err = err
			continue
		}
		if res, cerr, ok := m.cache.Get(cur.epoch, reqs[i]); ok {
			r, e := cachedResult(res, cerr, reqs[i])
			items[i] = core.BatchItem{Result: r, Err: e}
			continue
		}
		missIdx = append(missIdx, i)
		units += m.est.Units(cur.ix, reqs[i])
	}
	if len(missIdx) == 0 {
		return items, nil
	}
	t0 := time.Now()
	release, aerr := m.gate.Acquire(ctx, tenant, m.est.Duration(units))
	if aerr != nil {
		for _, i := range missIdx {
			items[i].Err = aerr
		}
		return items, aerr
	}
	defer release()
	wait := time.Since(t0)

	snap := m.Acquire()
	defer snap.Release()
	m.execQ.Add(1)
	if snap.epoch != cur.epoch {
		// A publish raced the cache pass. Cached answers came from the old
		// epoch, so recompute everything instead of mixing graph states —
		// the batch must stay an atomic read of one epoch.
		missIdx = missIdx[:0]
		for i := range reqs {
			if err := reqs[i].Validate(n); err == nil {
				items[i] = core.BatchItem{}
				missIdx = append(missIdx, i)
			}
		}
	}
	miss := make([]core.Request, len(missIdx))
	for j, i := range missIdx {
		miss[j] = reqs[i]
	}
	cpu := pinCPU()
	defer cpu.unpin()
	e0 := time.Now()
	sub, err := snap.searcher.SearchBatch(ctx, miss)
	m.est.Observe(units, time.Since(e0))
	for j, i := range missIdx {
		items[i] = sub[j]
		if r := sub[j].Result; r != nil {
			r.Stats.Epoch = snap.epoch
			r.Stats.QueueWait = wait
			r.Stats.Tenant = reqs[i].Tenant
			m.cache.Put(snap.epoch, reqs[i], r, nil)
		} else if cacheableErr(sub[j].Err) {
			m.cache.Put(snap.epoch, reqs[i], nil, sub[j].Err)
		}
	}
	return items, err
}

// Overloaded reports whether the admission gate is currently shedding or
// saturated (queue non-empty, or a shed within the last second). /healthz
// uses it to distinguish "overloaded" from WAL-failure "degraded".
func (m *Manager) Overloaded() bool { return m.gate.Overloaded() }

// Stats assembles the current counters and snapshot dimensions.
func (m *Manager) Stats() Stats {
	s := m.Acquire()
	defer s.Release()
	st := Stats{
		Epoch:         s.epoch,
		SnapshotAge:   time.Since(s.created),
		FullRebuild:   s.full,
		Vertices:      s.g.N(),
		Edges:         s.g.M(),
		MaxTruss:      s.ix.MaxTruss(),
		Dirty:         m.dirtyGauge.Load(),
		QueueLen:      len(m.msgs),
		Publishes:     m.publishes.Load(),
		FullRebuilds:  m.fulls.Load(),
		LiveSnapshots: m.liveSnaps.Load(),
		Retired:       m.retired.Load(),
		Adds:          m.adds.Load(),
		Removes:       m.removes.Load(),
		Rejected:      m.rejected.Load(),
	}
	if w := m.opts.WAL; w != nil {
		ws := w.Stats()
		st.WALEnabled = true
		st.WALLastSeq = ws.LastSeq
		st.WALDurableSeq = ws.DurableSeq
		st.WALCheckpointSeq = ws.CheckpointSeq
		st.WALSegments = ws.Segments
		st.WALBytes = ws.Bytes
		st.WALAppends = ws.Appends
		st.WALSyncs = ws.Syncs
		st.WALLastFsyncUS = ws.LastSyncTime.Microseconds()
	}
	st.Degraded = m.degraded.Load()
	if e, ok := m.walErr.Load().(string); ok {
		st.WALLastError = e
	}
	st.WALDropped = m.walDropped.Load()

	ac := m.gate.Counters()
	st.QueriesAdmitted = ac.Admitted
	st.QueriesExecuted = m.execQ.Load()
	st.ShedDeadline = ac.ShedDeadline
	st.ShedQueueFull = ac.ShedQueueFull
	st.CanceledInQueue = ac.CanceledInQueue
	st.QueryQueueDepth = ac.QueueDepth
	st.QueryInflight = ac.Inflight
	st.Overloaded = m.gate.Overloaded()
	st.EstCostNSPerUnit = m.est.CostNS()
	st.Tenants = ac.Tenants
	cs := m.cache.Stats()
	st.CacheHits = cs.Hits
	st.CacheMisses = cs.Misses
	st.CacheEntries = cs.Entries
	if total := cs.Hits + cs.Misses; total > 0 {
		st.CacheHitRatio = float64(cs.Hits) / float64(total)
	}
	return st
}

// run is the writer goroutine: it drains the update queue in batches,
// maintains the incremental decomposition, and publishes snapshots when the
// dirty threshold or the staleness deadline is hit.
func (m *Manager) run() {
	defer close(m.done)
	ticker := time.NewTicker(m.opts.PublishInterval)
	defer ticker.Stop()
	for {
		select {
		case <-m.quit:
			m.drainOnClose()
			return
		case mg := <-m.msgs:
			ups, flushes := m.collectBatch(mg)
			m.commitAndApply(ups)
			if len(flushes) > 0 {
				if m.dirty > 0 {
					m.publish()
				}
				for _, ch := range flushes {
					close(ch)
				}
			} else if m.dirty >= m.opts.PublishDirty {
				m.publish()
			}
		case <-ticker.C:
			if m.dirty > 0 {
				m.publish()
			}
		}
	}
}

// collectBatch gathers the first message plus up to MaxBatch-1 more that
// are already queued, preserving order, without applying anything — the
// caller commits the batch to the WAL first (commitAndApply). Flush markers
// encountered are collected and acknowledged by the caller after the
// publish decision.
func (m *Manager) collectBatch(first msg) (ups []Update, flushes []chan struct{}) {
	mg := first
	for n := 0; ; {
		if mg.flush != nil {
			flushes = append(flushes, mg.flush)
			// Order guarantees every earlier update is committed and
			// applied; stop here so the flush acknowledgment is not delayed
			// by later traffic.
			return ups, flushes
		}
		ups = append(ups, mg.up)
		if n++; n >= m.opts.MaxBatch {
			return ups, flushes
		}
		select {
		case mg = <-m.msgs:
		default:
			return ups, flushes
		}
	}
}

// commitAndApply makes one drained batch durable, then applies it. This is
// the write-ahead ordering invariant: nothing mutates the incremental state
// until the log's fsync has covered it, so a crash at any instant recovers
// a state at least as new as every acknowledged flush and never newer than
// the log. The whole batch shares one record and one group-commit fsync.
//
// On a WAL failure the batch is dropped *before* application — the served
// index never diverges from the log — and the manager degrades to
// read-only rather than panicking or silently continuing non-durably.
func (m *Manager) commitAndApply(ups []Update) {
	if len(ups) == 0 {
		return
	}
	if m.degraded.Load() {
		m.walDropped.Add(int64(len(ups)))
		return
	}
	if w := m.opts.WAL; w != nil {
		// Batches committed between publish E and E+1 all carry seq E+1:
		// the record's sequence number is the epoch whose snapshot first
		// contains it, which is what checkpoint pruning and replay key on.
		seq := uint64(m.cur.Load().epoch) + 1
		wb := make([]wal.Update, len(ups))
		for i, u := range ups {
			wb[i] = wal.Update{Op: wal.Op(u.Op), U: u.U, V: u.V}
		}
		if err := w.Append(seq, wb); err != nil {
			m.degrade("append", err, len(ups))
			return
		}
		s0 := time.Now()
		if err := w.Sync(); err != nil {
			m.degrade("sync", err, len(ups))
			return
		}
		m.logFsyncStall(time.Since(s0), len(ups))
	}
	for _, u := range ups {
		m.applyUpdate(u)
	}
}

// degrade records a WAL failure and switches the manager to read-only mode.
// Runs on the writer goroutine.
func (m *Manager) degrade(stage string, err error, dropped int) {
	m.walErr.Store(stage + ": " + err.Error())
	m.degraded.Store(true)
	m.walDropped.Add(int64(dropped))
	m.logDegraded(stage, err, dropped)
}

// drainOnClose commits and applies everything still queued, publishes once
// if anything changed, and acknowledges pending flushes.
func (m *Manager) drainOnClose() {
	var flushes []chan struct{}
	var ups []Update
	for {
		select {
		case mg := <-m.msgs:
			if mg.flush != nil {
				flushes = append(flushes, mg.flush)
			} else {
				ups = append(ups, mg.up)
			}
		default:
			m.commitAndApply(ups)
			if m.dirty > 0 {
				m.publish()
			}
			for _, ch := range flushes {
				close(ch)
			}
			return
		}
	}
}

func (m *Manager) markDirty() {
	m.dirty++
	m.dirtyGauge.Store(int64(m.dirty))
}

// applyUpdate routes one update into the incremental decomposition (base
// edges) or the pending-foreign set (edges outside the current base's
// edge-ID space, merged at the next rebase). Idempotent duplicates are
// dropped silently; structurally invalid ops count as rejected.
func (m *Manager) applyUpdate(up Update) {
	u, v := up.U, up.V
	if u == v || u < 0 || v < 0 || u > graph.MaxVertexID || v > graph.MaxVertexID {
		m.rejected.Add(1)
		return
	}
	base := m.inc.Graph().Base()
	key := graph.Key(u, v)
	switch up.Op {
	case OpAdd:
		if e := base.EdgeID(u, v); e >= 0 {
			if m.inc.InsertEdgeByID(e) {
				m.adds.Add(1)
				m.markDirty()
			}
		} else if !m.pending[key] {
			m.pending[key] = true
			m.adds.Add(1)
			m.markDirty()
		}
	case OpRemove:
		if m.pending[key] {
			delete(m.pending, key)
			m.removes.Add(1)
			m.markDirty()
		} else if m.inc.DeleteEdge(u, v) {
			m.removes.Add(1)
			m.markDirty()
		}
	default:
		m.rejected.Add(1)
	}
}

// publish freezes the live state into an immutable snapshot and installs it
// as the new epoch. Runs on the writer goroutine only (and once from
// newManager before the goroutine starts).
func (m *Manager) publish() {
	t0 := time.Now()
	applied := m.dirty
	full := false
	if len(m.pending) > 0 {
		full = m.rebase()
	}
	d := m.inc.Snapshot()
	m.install(trussindex.BuildFromDecomposition(d.G, d), d.G, full)
	dur := time.Since(t0)
	m.metrics.publishLatency.Observe(dur)
	m.logPublish(m.cur.Load().epoch, full, applied, dur)
	m.maybeCheckpoint()
}

// maybeCheckpoint writes a WAL checkpoint of the just-published snapshot
// every CheckpointEvery publishes: the index is serialized (with its own
// CRC trailer) to checkpoint-<epoch>.ctc and the log prunes every segment
// the checkpoint covers. Runs on the writer goroutine, so updates stall for
// the serialization — bounded by index size, and amortized by
// CheckpointEvery. A checkpoint failure degrades the manager: the log
// itself may be intact, but a storage layer that cannot complete an atomic
// rename cannot be trusted with the next append either.
func (m *Manager) maybeCheckpoint() {
	w := m.opts.WAL
	if w == nil || m.degraded.Load() {
		return
	}
	if m.sinceCkpt++; m.sinceCkpt < m.opts.CheckpointEvery {
		return
	}
	snap := m.cur.Load()
	c0 := time.Now()
	err := w.WriteCheckpoint(uint64(snap.epoch), func(dst io.Writer) error {
		_, err := snap.ix.WriteTo(dst)
		return err
	})
	if err != nil {
		m.degrade("checkpoint", err, 0)
		return
	}
	dur := time.Since(c0)
	m.metrics.checkpointLatency.Observe(dur)
	m.logCheckpoint(snap.epoch, dur)
	m.sinceCkpt = 0
}

// install makes (ix, g) the new epoch and releases the manager's reference
// on the previous one.
func (m *Manager) install(ix *trussindex.Index, g *graph.Graph, full bool) {
	prev := m.cur.Load()
	epoch := m.epochBase + 1
	if prev != nil && prev.epoch+1 > epoch {
		epoch = prev.epoch + 1
	}
	snap := &Snapshot{
		epoch:    epoch,
		ix:       ix,
		g:        g,
		created:  time.Now(),
		full:     full,
		searcher: core.NewSearcher(ix),
		mgr:      m,
	}
	snap.refs.Store(1) // the manager's own reference
	m.liveSnaps.Add(1)
	m.cur.Store(snap)
	m.dirty = 0
	m.dirtyGauge.Store(0)
	m.publishes.Add(1)
	if full {
		m.fulls.Add(1)
	}
	if m.opts.OnPublish != nil {
		m.opts.OnPublish(snap)
	}
	// Publish invalidates the result cache by construction (the epoch is
	// part of every key); the sweep just frees the stale generation's
	// memory promptly instead of waiting for LRU churn.
	m.cache.Sweep(epoch)
	if prev != nil {
		prev.Release()
	}
}

// rebase folds the pending foreign edges into a new base graph (growing the
// vertex-ID space just enough for the *currently* pending endpoints — a
// cancelled pending add must not inflate it) and rebuilds the incremental
// state over it: old labels are carried over by edge key and each foreign
// edge is then inserted through the localized shell re-decomposition —
// unless the batch is large relative to the graph, in which case a full
// decomposition is cheaper. Reports whether the full path ran.
func (m *Manager) rebase() (full bool) {
	live := m.inc.Graph()
	base := live.Base()
	needN := base.N()
	for key := range m.pending {
		if _, v := key.Endpoints(); v >= needN {
			needN = v + 1 // v is the larger endpoint
		}
	}
	b := graph.NewBuilder(needN, live.M()+len(m.pending))
	if needN > 0 {
		b.EnsureVertex(needN - 1)
	}
	live.ForEachLiveEdge(func(_ int32, u, v int) { b.AddEdge(u, v) })
	foreign := make([]graph.EdgeKey, 0, len(m.pending))
	for key := range m.pending {
		u, v := key.Endpoints()
		b.AddEdge(u, v)
		foreign = append(foreign, key)
	}
	ng := b.Build()
	full = float64(len(foreign)) > m.opts.RebuildFraction*float64(ng.M())
	if full || live.M() == 0 {
		m.inc = truss.NewIncremental(ng)
		full = true
	} else {
		// Start with the foreign edges dead and the old labels mapped onto
		// the new edge-ID space — an exact decomposition of that state —
		// then insert the foreign edges one at a time.
		mu := graph.NewMutable(ng, nil)
		tau := make([]int32, ng.M())
		for e := int32(0); e < int32(ng.M()); e++ {
			u, v := ng.EdgeEndpoints(e)
			if old := base.EdgeID(u, v); old >= 0 && live.EdgeAlive(old) {
				tau[e] = m.inc.EdgeTau(old)
			} else {
				mu.DeleteEdgeByID(e)
			}
		}
		inc := truss.ResumeIncremental(mu, tau)
		for _, key := range foreign {
			u, v := key.Endpoints()
			inc.InsertEdgeByID(ng.EdgeID(u, v))
		}
		m.inc = inc
	}
	clear(m.pending)
	return full
}
