package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/admit"
	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/steiner"
	"repro/internal/telemetry"
	"repro/internal/truss"
	"repro/internal/trussindex"
)

// backend is the query/update plane the HTTP API serves: a single
// *serve.Manager, or the sharded tier's *shard.Router (N partitioned
// managers behind scatter-gather). Both satisfy it without adapters.
type backend interface {
	Query(ctx context.Context, req core.Request) (*core.Result, error)
	Apply(up serve.Update) error
	Flush() error
	Stats() serve.Stats
}

// server wires the backend to the HTTP API. Query handlers run against an
// immutable epoch snapshot (one per shard in sharded mode); they never
// touch the writer loops, so query latency is independent of update load.
type server struct {
	b backend
	// router is non-nil in sharded mode and adds the per-shard /stats
	// block and the shards count on /healthz.
	router *shard.Router
	start  time.Time
}

// newServer builds the API without the telemetry endpoints (tests and
// embedders that wire no registry).
func newServer(b backend) http.Handler {
	return newServerWith(b, nil, nil)
}

// newServerWith builds the full API: the query/update/stats plane plus,
// when wired, GET /metrics (Prometheus text exposition of reg) and
// GET /debug/slowlog (the tracer's slow-query ring). pprof is NOT mounted
// here — it lives on the separate -debug-addr listener.
func newServerWith(b backend, reg *telemetry.Registry, tracer *telemetry.Tracer) http.Handler {
	s := &server{b: b, start: time.Now()}
	if r, ok := b.(*shard.Router); ok {
		s.router = r
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /query", s.handleQuery)
	mux.HandleFunc("POST /update", s.handleUpdate)
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	if reg != nil {
		mux.Handle("GET /metrics", reg.Handler())
	}
	if tracer != nil {
		mux.Handle("GET /debug/slowlog", tracer.SlowLogHandler())
	}
	return mux
}

type queryRequest struct {
	// Q holds the query vertex IDs.
	Q []int `json:"q"`
	// Algo selects the search algorithm: "lctc" (default), "basic",
	// "bd"/"bulk"/"bulkdelete", or "truss" (G0 without free-rider removal).
	Algo string `json:"algo"`
	// K, when > 0, requests a fixed-trussness community instead of the
	// maximum (the paper's Exp-5 variant).
	K int32 `json:"k"`
	// Eta overrides LCTC's expansion budget η (0 = default 1000).
	Eta int `json:"eta"`
	// Gamma overrides the truss-distance penalty γ (0 = default 3; only
	// meaningful with distance "truss").
	Gamma float64 `json:"gamma"`
	// Distance selects LCTC's seed metric: "truss" (default) or "hop".
	Distance string `json:"distance"`
	// Tenant identifies the caller for admission fairness and per-tenant
	// /stats accounting; the X-Tenant header is the fallback when empty.
	Tenant string `json:"tenant"`
	// TimeoutMS, when > 0, bounds the query with a server-side deadline.
	// Admission control sheds the request up front (429) if its estimated
	// start time already overruns the deadline; a query that overruns it
	// mid-execution is cancelled (504).
	TimeoutMS int `json:"timeout_ms"`
}

// queryStats mirrors core.QueryStats on the wire (microsecond timings).
type queryStats struct {
	SeedUS           int64  `json:"seed_us"`
	ExpandUS         int64  `json:"expand_us"`
	PeelUS           int64  `json:"peel_us"`
	SeedEdges        int    `json:"seed_edges"`
	PeelRounds       int    `json:"peel_rounds"`
	EdgesPeeled      int    `json:"edges_peeled"`
	WorkspaceReused  bool   `json:"workspace_reused"`
	QueueWaitUS      int64  `json:"queue_wait_us"`
	TotalWithQueueUS int64  `json:"total_with_queue_us"`
	CacheHit         bool   `json:"cache_hit"`
	Tenant           string `json:"tenant,omitempty"`
	// ShardEpochs is the per-shard epoch vector of the sharded tier: entry
	// i is the epoch of shard i's snapshot this answer was computed
	// against. Absent in single-manager mode.
	ShardEpochs []int64 `json:"shard_epochs,omitempty"`
}

type queryResponse struct {
	Algo      string     `json:"algo"`
	Epoch     int64      `json:"epoch"`
	K         int32      `json:"k"`
	N         int        `json:"n"`
	M         int        `json:"m"`
	QueryDist int        `json:"query_dist"`
	Density   float64    `json:"density"`
	Vertices  []int      `json:"vertices,omitempty"`
	ElapsedUS int64      `json:"elapsed_us"`
	Stats     queryStats `json:"stats"`
}

// statusClientClosedRequest is nginx's non-standard 499 ("client closed
// request"): the query was cancelled because the HTTP client disconnected,
// so no one will read the response — the code exists for access logs.
const statusClientClosedRequest = 499

// toRequest decodes the wire shape into a validated core.Request. The
// decoding here is pure translation; all domain validation (vertex ranges,
// parameter domains) happens once inside Search.
func (qr *queryRequest) toRequest() (core.Request, error) {
	algo, err := core.ParseAlgo(qr.Algo)
	if err != nil {
		return core.Request{}, err
	}
	req := core.Request{Q: qr.Q, Algo: algo, K: qr.K, Eta: qr.Eta, Gamma: qr.Gamma, Tenant: qr.Tenant}
	switch qr.Distance {
	case "", "truss":
		req.DistanceMode = core.DistTrussPenalty
	case "hop":
		req.DistanceMode = core.DistHop
	default:
		return core.Request{}, fmt.Errorf("%w: unknown distance %q (want truss or hop)", core.ErrBadParam, qr.Distance)
	}
	return req, nil
}

// maxBodyBytes caps a /query or /update request body. The largest body a
// real client sends, a 64-edge update batch, is a few KB.
const maxBodyBytes = 1 << 20

// decodeBody decodes the JSON request body into v, reading at most
// maxBodyBytes. On failure it writes the error response (413 too_large for
// an oversized body, 400 bad_request otherwise) and returns false.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(v)
	if err == nil {
		return true
	}
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		httpErrorCode(w, http.StatusRequestEntityTooLarge, "too_large", "request body exceeds %d bytes", maxBodyBytes)
	} else {
		httpErrorCode(w, http.StatusBadRequest, "bad_request", "bad request body: %v", err)
	}
	return false
}

func (s *server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var qr queryRequest
	if !decodeBody(w, r, &qr) {
		return
	}
	req, err := qr.toRequest()
	if err != nil {
		httpErrorCode(w, http.StatusBadRequest, "bad_request", "%v", err)
		return
	}
	if req.Tenant == "" {
		req.Tenant = r.Header.Get("X-Tenant")
	}
	// r.Context() is cancelled when the client disconnects, so an abandoned
	// query stops peeling mid-round instead of running to completion; a
	// timeout_ms budget additionally arms admission's deadline-aware shed.
	ctx := r.Context()
	if qr.TimeoutMS > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(qr.TimeoutMS)*time.Millisecond)
		defer cancel()
	}
	res, err := s.b.Query(ctx, req)
	if err != nil {
		writeQueryError(w, err)
		return
	}
	st := res.Stats
	writeJSON(w, queryResponse{
		Algo:      res.Algorithm,
		Epoch:     st.Epoch,
		K:         res.K,
		N:         res.N(),
		M:         res.M(),
		QueryDist: res.QueryDist(),
		Density:   res.Density(),
		Vertices:  res.Vertices(),
		ElapsedUS: st.Total.Microseconds(),
		Stats: queryStats{
			SeedUS:           st.Seed.Microseconds(),
			ExpandUS:         st.Expand.Microseconds(),
			PeelUS:           st.Peel.Microseconds(),
			SeedEdges:        st.SeedEdges,
			PeelRounds:       st.PeelRounds,
			EdgesPeeled:      st.EdgesPeeled,
			WorkspaceReused:  st.WorkspaceReused,
			QueueWaitUS:      st.QueueWait.Microseconds(),
			TotalWithQueueUS: st.TotalWithQueue().Microseconds(),
			CacheHit:         st.CacheHit,
			Tenant:           st.Tenant,
			ShardEpochs:      st.ShardEpochs,
		},
	})
}

// writeQueryError maps a Search error onto a status code and a stable
// machine-readable error code (errors.Is on the typed sentinels — no
// string matching). The taxonomy, in precedence order: shed → 429 with
// Retry-After, bad request → 400, no community → 404, client gone → 499,
// deadline blown mid-query → 504, everything else → 422.
func writeQueryError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, serve.ErrOverloaded):
		// Load shed before any work ran. Retry-After comes from the gate's
		// backlog estimate (rounded up, at least a second) so well-behaved
		// clients spread their retries past the burst.
		var oe *admit.OverloadError
		retry := time.Second
		if errors.As(err, &oe) && oe.RetryAfter > retry {
			retry = oe.RetryAfter
		}
		w.Header().Set("Retry-After", strconv.Itoa(int(retryAfterSeconds(retry))))
		httpErrorCode(w, http.StatusTooManyRequests, "overloaded", "%v", err)
	case errors.Is(err, core.ErrEmptyQuery) || errors.Is(err, core.ErrVertexOutOfRange) ||
		errors.Is(err, core.ErrBadParam):
		httpErrorCode(w, http.StatusBadRequest, "bad_request", "%v", err)
	case errors.Is(err, trussindex.ErrNoCommunity) || errors.Is(err, truss.ErrNoCommunity) ||
		errors.Is(err, steiner.ErrDisconnected):
		// Every "no such community" shape maps to 404: the index's
		// sentinel, the truss package's (LCTC extraction), and a Steiner
		// seed that cannot connect the terminals.
		httpErrorCode(w, http.StatusNotFound, "no_community", "%v", err)
	case errors.Is(err, context.Canceled):
		httpErrorCode(w, statusClientClosedRequest, "canceled", "%v", err)
	case errors.Is(err, context.DeadlineExceeded):
		httpErrorCode(w, http.StatusGatewayTimeout, "deadline_exceeded", "%v", err)
	default:
		httpErrorCode(w, http.StatusUnprocessableEntity, "internal", "%v", err)
	}
}

// retryAfterSeconds rounds a backoff hint up to whole seconds, minimum 1
// (Retry-After is integral seconds on the wire).
func retryAfterSeconds(d time.Duration) int64 {
	s := int64((d + time.Second - 1) / time.Second)
	if s < 1 {
		s = 1
	}
	return s
}

type updateOp struct {
	// Op is "add" or "remove".
	Op string `json:"op"`
	U  int    `json:"u"`
	V  int    `json:"v"`
}

type updateRequest struct {
	// Either a single inline op...
	updateOp
	// ...or a batch.
	Edges []updateOp `json:"edges"`
	// Flush forces the batch to be applied and published before the
	// response is written (the response epoch then reflects it).
	Flush bool `json:"flush"`
}

type updateResponse struct {
	Enqueued int   `json:"enqueued"`
	Epoch    int64 `json:"epoch"`
	Flushed  bool  `json:"flushed"`
}

func (s *server) handleUpdate(w http.ResponseWriter, r *http.Request) {
	var req updateRequest
	if !decodeBody(w, r, &req) {
		return
	}
	ops := req.Edges
	if req.Op != "" {
		ops = append([]updateOp{req.updateOp}, ops...)
	}
	if len(ops) == 0 {
		httpErrorCode(w, http.StatusBadRequest, "bad_request", "no update ops")
		return
	}
	// Validate the whole batch before enqueueing anything, so a 400 never
	// leaves a partially applied batch behind.
	ups := make([]serve.Update, 0, len(ops))
	for _, op := range ops {
		switch op.Op {
		case "add":
			ups = append(ups, serve.Update{Op: serve.OpAdd, U: op.U, V: op.V})
		case "remove":
			ups = append(ups, serve.Update{Op: serve.OpRemove, U: op.U, V: op.V})
		default:
			httpErrorCode(w, http.StatusBadRequest, "bad_request", "unknown op %q (want add or remove)", op.Op)
			return
		}
	}
	enqueued := 0
	for _, up := range ups {
		if err := s.b.Apply(up); err != nil {
			writeUpdateError(w, err)
			return
		}
		enqueued++
	}
	if req.Flush {
		if err := s.b.Flush(); err != nil {
			writeUpdateError(w, err)
			return
		}
	}
	writeJSON(w, updateResponse{
		Enqueued: enqueued,
		Epoch:    s.b.Stats().Epoch,
		Flushed:  req.Flush,
	})
}

type statsResponse struct {
	serve.Stats
	SnapshotAgeMS float64 `json:"snapshot_age_ms"`
	UptimeS       float64 `json:"uptime_s"`
	// Build identifies the binary: Go toolchain version, and the VCS
	// revision/dirty flag when the build stamped them.
	Build telemetry.BuildInfo `json:"build"`
	// Shards breaks the aggregate down per shard in sharded mode: the
	// embedded Stats are then tier-wide aggregates (max epoch, summed
	// counters, any-of flags). Absent in single-manager mode.
	Shards []shard.ShardStat `json:"shards,omitempty"`
}

func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	st := s.b.Stats()
	resp := statsResponse{
		Stats:         st,
		SnapshotAgeMS: float64(st.SnapshotAge.Microseconds()) / 1000,
		UptimeS:       time.Since(s.start).Seconds(),
		Build:         telemetry.Build(),
	}
	if s.router != nil {
		resp.Shards = s.router.ShardStats()
	}
	writeJSON(w, resp)
}

// degradedRetryAfterS is the Retry-After hint on degraded (read-only)
// responses: recovery needs an operator restart, so the backoff is long —
// a client retrying sooner can only collect more 503s.
const degradedRetryAfterS = 30

// writeUpdateError maps an update-path failure onto a status code and a
// stable machine-readable code: "degraded" when a WAL failure has made the
// server read-only (the client must not retry against this process — the
// Retry-After hint covers a failover, not a local recovery), "unavailable"
// for shutdown.
func writeUpdateError(w http.ResponseWriter, err error) {
	if errors.Is(err, serve.ErrDegraded) {
		w.Header().Set("Retry-After", strconv.Itoa(degradedRetryAfterS))
		httpErrorCode(w, http.StatusServiceUnavailable, "degraded", "%v", err)
		return
	}
	httpErrorCode(w, http.StatusServiceUnavailable, "unavailable", "%v", err)
}

// healthzResponse distinguishes the two unhealthy-ish states an
// orchestrator must treat differently: "degraded" (read-only after a WAL
// failure — fail the instance over, 503) and "overloaded" (shedding load
// but fully functional — do NOT restart it, that only loses the warm
// cache; 200). In sharded mode the flags aggregate any-of across shards:
// one degraded shard makes the tier degraded, because scatter-gather
// answers computed without it would silently miss community members.
type healthzResponse struct {
	Status     string  `json:"status"` // ok | degraded | overloaded
	Epoch      int64   `json:"epoch"`
	Degraded   bool    `json:"degraded"`
	Overloaded bool    `json:"overloaded"`
	WALError   string  `json:"wal_error,omitempty"`
	QueueDepth int     `json:"query_queue_depth"`
	Shards     int     `json:"shards,omitempty"`
	UptimeS    float64 `json:"uptime_s"`
	GoVersion  string  `json:"go_version"`
	Revision   string  `json:"revision,omitempty"`
}

func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	st := s.b.Stats()
	b := telemetry.Build()
	hr := healthzResponse{
		Status:     "ok",
		Epoch:      st.Epoch,
		Degraded:   st.Degraded,
		Overloaded: st.Overloaded,
		WALError:   st.WALLastError,
		QueueDepth: st.QueryQueueDepth,
		UptimeS:    time.Since(s.start).Seconds(),
		GoVersion:  b.GoVersion,
		Revision:   b.Revision,
	}
	if s.router != nil {
		hr.Shards = s.router.Shards()
	}
	switch {
	case hr.Degraded:
		hr.Status = "degraded"
		w.Header().Set("Retry-After", strconv.Itoa(degradedRetryAfterS))
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
	case hr.Overloaded:
		hr.Status = "overloaded"
		w.Header().Set("Content-Type", "application/json")
	default:
		w.Header().Set("Content-Type", "application/json")
	}
	_ = json.NewEncoder(w).Encode(hr)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

// httpErrorCode writes a structured JSON error: a human-readable message
// plus a stable machine-readable code clients can switch on (bad_request,
// too_large, no_community, overloaded, canceled, deadline_exceeded,
// degraded, unavailable, internal).
func httpErrorCode(w http.ResponseWriter, status int, code, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]string{
		"error": fmt.Sprintf(format, args...),
		"code":  code,
	})
}
