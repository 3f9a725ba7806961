package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/trussindex"
)

// Algo selects the community-search algorithm of a Request.
type Algo uint8

const (
	// AlgoLCTC is Algorithm 5, the local-exploration heuristic seeded by a
	// truss-distance Steiner tree — the recommended default (zero value).
	AlgoLCTC Algo = iota
	// AlgoBasic is Algorithm 1, the greedy 2-approximation that deletes one
	// furthest vertex per iteration. Exact on trussness, slowest.
	AlgoBasic
	// AlgoBulkDelete is Algorithm 4, batch deletion of all far vertices per
	// iteration: a (2+ε)-approximation, much faster than Basic.
	AlgoBulkDelete
	// AlgoTrussOnly returns G0 itself — the maximal connected k-truss
	// containing Q — with no free-rider removal (Algorithm 2 / the "Truss"
	// baseline).
	AlgoTrussOnly

	algoEnd // one past the last valid Algo; keep last
)

// algoInfo is the single registry every algo-keyed surface derives from: the
// display name (Community.Algorithm, the telemetry "algo" label) and the
// accepted wire/CLI spellings (first spelling canonical). Adding an Algo
// means adding one entry here — ParseAlgo, AlgoNames, and the error text of
// every frontend follow automatically and cannot drift.
var algoInfo = [algoEnd]struct {
	name      string
	spellings []string
}{
	AlgoLCTC:       {"LCTC", []string{"lctc"}},
	AlgoBasic:      {"Basic", []string{"basic"}},
	AlgoBulkDelete: {"BD", []string{"bd", "bulk", "bulkdelete"}},
	AlgoTrussOnly:  {"Truss", []string{"truss"}},
}

// String returns the algorithm's display name, matching the historical
// Community.Algorithm labels ("LCTC", "Basic", "BD", "Truss", ...).
func (a Algo) String() string {
	if a < algoEnd {
		return algoInfo[a].name
	}
	return fmt.Sprintf("Algo(%d)", uint8(a))
}

// AlgoNames returns the display names of every valid Algo in enum order —
// the exact label set of the per-algo metric vecs, so the telemetry plane
// can pre-register all children at construction.
func AlgoNames() []string {
	names := make([]string, algoEnd)
	for a := Algo(0); a < algoEnd; a++ {
		names[a] = algoInfo[a].name
	}
	return names
}

// AlgoSpellings renders the accepted wire spellings for error/usage text
// ("lctc, basic, bd/bulk/bulkdelete, truss, ..."). Derived from the
// registry so frontend messages stay accurate as algorithms are added.
func AlgoSpellings() string {
	var b []byte
	for a := Algo(0); a < algoEnd; a++ {
		if a > 0 {
			b = append(b, ", "...)
		}
		for i, sp := range algoInfo[a].spellings {
			if i > 0 {
				b = append(b, '/')
			}
			b = append(b, sp...)
		}
	}
	return string(b)
}

// ParseAlgo maps the wire/CLI spellings onto an Algo (case-sensitive,
// lower-case; see algoInfo). The empty string selects the LCTC default.
func ParseAlgo(s string) (Algo, error) {
	if s == "" {
		return AlgoLCTC, nil
	}
	for a := Algo(0); a < algoEnd; a++ {
		for _, sp := range algoInfo[a].spellings {
			if s == sp {
				return a, nil
			}
		}
	}
	return 0, fmt.Errorf("%w: unknown algo %q (want %s)", ErrBadParam, s, AlgoSpellings())
}

// DistanceMode selects the metric LCTC's Steiner seed is built under. The
// mode is explicit and Gamma is only meaningful under DistTrussPenalty.
type DistanceMode uint8

const (
	// DistTrussPenalty is the paper's truss distance (Definition 7):
	// hops + γ·(τ̄(∅) − min edge trussness along the path), with γ taken
	// from Request.Gamma (0 = the paper's default 3). The zero value.
	DistTrussPenalty DistanceMode = iota
	// DistHop is plain hop distance (γ = 0). Request.Gamma must be 0.
	DistHop

	distanceModeEnd // one past the last valid DistanceMode; keep last
)

// String names the distance mode ("truss" or "hop").
func (m DistanceMode) String() string {
	switch m {
	case DistTrussPenalty:
		return "truss"
	case DistHop:
		return "hop"
	}
	return fmt.Sprintf("DistanceMode(%d)", uint8(m))
}

// Typed request-validation errors. Search validates once up front and
// returns these instead of letting a malformed query reach VertexTruss/BFS
// unchecked; match with errors.Is.
var (
	// ErrEmptyQuery: the request has no query vertices.
	ErrEmptyQuery = errors.New("core: empty query vertex set")
	// ErrVertexOutOfRange: a query vertex is negative or >= the graph's N().
	ErrVertexOutOfRange = errors.New("core: query vertex out of range")
	// ErrBadParam: the query names more than maxQueryVertices vertices, or a
	// tuning parameter is out of its domain (negative K, Eta or Gamma, NaN
	// Gamma, Gamma combined with DistHop, unknown Algo or DistanceMode).
	ErrBadParam = errors.New("core: bad request parameter")
)

// Request is one validated community-search query: the query vertices, the
// algorithm, and explicit tuning parameters. The zero value of every field
// selects the paper's default (LCTC, maximize k, η = 1000, truss distance
// with γ = 3, no verification); there are no sentinel encodings.
type Request struct {
	// Q holds the query vertices (must be non-empty, each in [0, N)).
	Q []int
	// Algo selects the search algorithm (default AlgoLCTC).
	Algo Algo
	// K, when > 0, requests a community of that fixed trussness instead of
	// the maximum (the Exp-5 variant; values 1..2 behave as 2, since
	// trussness is only defined from 2 up). K < 0 is ErrBadParam.
	K int32
	// Eta is LCTC's node-budget threshold η for the local expansion
	// (0 = default 1000). Ignored by the other algorithms.
	Eta int
	// Gamma is the truss-distance penalty γ under DistTrussPenalty
	// (0 = default 3). Must be 0 under DistHop. Only LCTC reads it.
	Gamma float64
	// DistanceMode selects LCTC's seed metric (default DistTrussPenalty).
	DistanceMode DistanceMode
	// Verify re-checks the output against the CTC conditions (connected
	// k-truss containing Q) and fails loudly on violation. Meant for tests.
	Verify bool
	// Tenant identifies the requesting tenant for admission fairness and
	// per-tenant accounting in the serve layer ("" = the anonymous tenant).
	// It does not affect the answer and is not part of the cache identity.
	Tenant string
}

// maxQueryVertices caps |Q|. The Steiner seed keeps two |Q|×|Q| distance
// matrices (12·|Q|² bytes), so the cap bounds them at 12 MB; community
// queries name a handful of vertices.
const maxQueryVertices = 1024

// Validate checks the request against a graph with n vertices, returning a
// typed error (ErrEmptyQuery, ErrVertexOutOfRange, ErrBadParam) for the
// first violation found. Search calls this before acquiring a workspace.
func (r *Request) Validate(n int) error {
	if len(r.Q) == 0 {
		return ErrEmptyQuery
	}
	if len(r.Q) > maxQueryVertices {
		return fmt.Errorf("%w: %d query vertices, at most %d", ErrBadParam, len(r.Q), maxQueryVertices)
	}
	for _, v := range r.Q {
		if v < 0 || v >= n {
			return fmt.Errorf("%w: vertex %d not in [0, %d)", ErrVertexOutOfRange, v, n)
		}
	}
	if r.Algo >= algoEnd {
		return fmt.Errorf("%w: unknown Algo(%d)", ErrBadParam, uint8(r.Algo))
	}
	if r.DistanceMode >= distanceModeEnd {
		return fmt.Errorf("%w: unknown DistanceMode(%d)", ErrBadParam, uint8(r.DistanceMode))
	}
	if r.K < 0 {
		return fmt.Errorf("%w: negative K %d", ErrBadParam, r.K)
	}
	if r.Eta < 0 {
		return fmt.Errorf("%w: negative Eta %d", ErrBadParam, r.Eta)
	}
	if r.Gamma < 0 || math.IsNaN(r.Gamma) || math.IsInf(r.Gamma, 0) {
		return fmt.Errorf("%w: Gamma %v outside [0, ∞)", ErrBadParam, r.Gamma)
	}
	if r.DistanceMode == DistHop && r.Gamma != 0 {
		return fmt.Errorf("%w: Gamma %v is meaningless under DistHop", ErrBadParam, r.Gamma)
	}
	return nil
}

// eta returns the effective expansion budget.
func (r *Request) eta() int {
	if r.Eta <= 0 {
		return 1000
	}
	return r.Eta
}

// gamma returns the effective truss-distance penalty.
func (r *Request) gamma() float64 {
	if r.DistanceMode == DistHop {
		return 0
	}
	if r.Gamma == 0 {
		return 3
	}
	return r.Gamma
}

// QueryStats is the per-query execution report of one Search call. Phase
// timings are wall-clock; for LCTC, Seed covers the Steiner-tree build,
// Expand the local expansion plus truss extraction, and Peel the free-rider
// shrink. For Basic/BulkDelete/TrussOnly, Seed is FindG0W/FindKTrussW and
// Peel the free-rider shrink (none for TrussOnly). For all four, Peel also
// covers reading the answer off the peel's compact graph: its vertex list,
// edge bits and query distance.
type QueryStats struct {
	// Algo echoes the request's algorithm.
	Algo Algo
	// Epoch is the serving-snapshot epoch this query ran against (0 when the
	// query ran on a standalone index outside the serve layer).
	Epoch int64
	// Seed is the time to resolve the starting structure: FindG0W/FindKTrussW
	// for Basic/BulkDelete/TrussOnly, the Steiner-tree build for LCTC.
	Seed time.Duration
	// Expand is LCTC's local-expansion + extraction time (0 otherwise).
	Expand time.Duration
	// Peel is the greedy free-rider-removal time, hand-back included.
	Peel time.Duration
	// Total is the end-to-end pipeline time of the query — every phase plus
	// the Verify re-check when requested. Request validation (a cheap O(|Q|)
	// scan that runs before a workspace is even acquired) is not included,
	// and neither is admission-queue wait — that is QueueWait, which is
	// stamped by the serve layer after the pipeline finishes.
	//
	// Invariant: Total >= Seed + Expand + Peel (Total is measured by one
	// outer clock around the whole pipeline, the phases by inner clocks, so
	// inter-phase glue can only add to Total, never subtract). Use
	// TotalWithQueue for the client-observed latency.
	Total time.Duration
	// SeedEdges counts the edges of the compact graph the peel starts from
	// (G0 for Basic/BulkDelete/TrussOnly, the extracted k-truss for LCTC) —
	// the main driver of query cost.
	SeedEdges int
	// PeelRounds counts peeling iterations (distance recomputations).
	PeelRounds int
	// EdgesPeeled counts edges removed across all peel rounds.
	EdgesPeeled int
	// WorkspaceReused reports whether the query ran on a pooled workspace
	// (false = this query paid the one-time workspace allocation).
	WorkspaceReused bool
	// QueueWait is the time the query spent in the admission queue before a
	// concurrency slot was granted (0 when it ran outside the serve layer or
	// was admitted immediately).
	QueueWait time.Duration
	// CacheHit reports that the answer was served from the epoch-keyed
	// result cache; the phase timings then describe the original execution
	// that populated the entry, not this request.
	CacheHit bool
	// Tenant echoes the request's tenant ("" = anonymous).
	Tenant string
	// ShardEpochs is the per-shard epoch vector stamped by the sharded
	// serving tier (internal/shard): entry i is the epoch of shard i's
	// snapshot the answer was computed against, and Epoch is their maximum.
	// Nil outside the shard router (single-manager and standalone queries),
	// so the field costs nothing on the unsharded hot path.
	ShardEpochs []int64
}

// TotalWithQueue is the client-observed latency of the query through the
// serve layer: the pipeline time plus the admission-queue wait. Outside the
// serve layer (QueueWait == 0) it equals Total.
func (s *QueryStats) TotalWithQueue() time.Duration {
	return s.Total + s.QueueWait
}

// Result is the answer to one Search: the community itself plus the
// per-query stats. The Community is embedded by value so the whole result
// is a single allocation.
type Result struct {
	Community
	// Stats reports how the query executed.
	Stats QueryStats
}

// BatchItem is one request's outcome inside SearchBatch: exactly one of
// Result and Err is non-nil.
type BatchItem struct {
	Result *Result
	Err    error
}

// Search answers one community-search request. It validates req, checks a
// pooled workspace out of the index, dispatches on req.Algo, and returns
// the community with per-query stats. Cancellation: ctx is polled at
// peel-round/BFS-level granularity throughout the pipeline (FindG0, the
// Steiner build, expansion, extraction, peeling), so cancelling the context
// or exceeding its deadline returns context.Canceled /
// context.DeadlineExceeded promptly without per-edge overhead.
//
// Search is safe for any number of concurrent callers on one Searcher.
func (s *Searcher) Search(ctx context.Context, req Request) (*Result, error) {
	if err := req.Validate(s.ix.Graph().N()); err != nil {
		return nil, err
	}
	ws := s.ix.AcquireWorkspace()
	defer ws.Release()
	return s.searchW(ctx, req, ws)
}

// SearchBatch answers the requests in order on one pooled workspace,
// amortizing workspace checkout (and its one-time warm-up allocation)
// across the batch. Each request gets its own BatchItem — an invalid or
// infeasible request fails alone without aborting the batch — except that a
// ctx cancellation fails every not-yet-run request with the context error
// and is also returned as the batch error.
func (s *Searcher) SearchBatch(ctx context.Context, reqs []Request) ([]BatchItem, error) {
	items := make([]BatchItem, len(reqs))
	if len(reqs) == 0 {
		return items, nil
	}
	n := s.ix.Graph().N()
	ws := s.ix.AcquireWorkspace()
	defer ws.Release()
	for i := range reqs {
		if err := ctx.Err(); err != nil {
			for j := i; j < len(reqs); j++ {
				items[j].Err = err
			}
			return items, err
		}
		if err := reqs[i].Validate(n); err != nil {
			items[i].Err = err
			continue
		}
		res, err := s.searchW(ctx, reqs[i], ws)
		items[i] = BatchItem{Result: res, Err: err}
	}
	// Cancellation during the final request's search never reaches the
	// top-of-loop check; the batch-level error must still report it.
	if err := ctx.Err(); err != nil {
		return items, err
	}
	return items, nil
}

// searchW runs one validated request on an explicit workspace. It installs
// ctx as the workspace's cancel hook for the duration of the call; the
// Result is a single allocation with all stats filled in.
func (s *Searcher) searchW(ctx context.Context, req Request, ws *trussindex.Workspace) (*Result, error) {
	ws.SetContext(ctx)
	res := &Result{}
	st := &res.Stats
	st.Algo = req.Algo
	st.WorkspaceReused = ws.Reused()
	t0 := time.Now()

	var err error
	switch req.Algo {
	case AlgoTrussOnly, AlgoBasic, AlgoBulkDelete:
		err = s.searchGlobal(req, ws, res)
	case AlgoLCTC:
		err = s.searchLCTC(req, ws, res)
	default: // unreachable after Validate
		err = fmt.Errorf("%w: unknown Algo(%d)", ErrBadParam, uint8(req.Algo))
	}
	if err != nil {
		return nil, err
	}
	if req.Verify {
		if err := verifyResult(res); err != nil {
			return nil, err
		}
	}
	st.Total = time.Since(t0)
	return res, nil
}
