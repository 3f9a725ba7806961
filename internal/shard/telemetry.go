package shard

import (
	"context"
	"errors"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/steiner"
	"repro/internal/telemetry"
	"repro/internal/truss"
	"repro/internal/trussindex"
)

// routerMetrics holds the router's recording handles. All nil when
// Config.Metrics is unset; every recording site is nil-safe.
type routerMetrics struct {
	phase       *telemetry.HistogramVec
	scatter     *telemetry.Histogram
	gather      *telemetry.Histogram
	merge       *telemetry.Histogram
	queries     *telemetry.CounterVec
	partialHits *telemetry.Counter
	gatherVerts *telemetry.Gauge
	gatherEdges *telemetry.Gauge
}

// registerMetrics registers the router families: the merge-pipeline phase
// histogram, merged-query outcome counters, and one scrape-time gauge
// family per per-shard signal, labeled {shard="i"}. The per-shard families
// replace the single manager's ctc_epoch/ctc_graph_*/ctc_degraded view —
// shard managers are constructed with Metrics nil (one registry serves one
// metrics owner), so there is no double accounting.
func (r *Router) registerMetrics(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	reg.NewGaugeFunc("ctc_shards",
		"Shard count of the serving tier.",
		func() float64 { return float64(len(r.mgrs)) })

	shardGauge := func(name, help string, read func(m *serve.Manager) float64) {
		gv := reg.NewGaugeVecFunc(name, help, "shard")
		for i, m := range r.mgrs {
			m := m
			gv.With(shardLabel(i), func() float64 { return read(m) })
		}
	}
	shardGauge("ctc_shard_epoch",
		"Epoch of the shard's currently served snapshot.",
		func(m *serve.Manager) float64 { return float64(m.Stats().Epoch) })
	shardGauge("ctc_shard_graph_vertices",
		"Vertices in the shard's served snapshot.",
		func(m *serve.Manager) float64 { return float64(m.Stats().Vertices) })
	shardGauge("ctc_shard_graph_edges",
		"Edges in the shard's served snapshot (owned + replicated cut edges).",
		func(m *serve.Manager) float64 { return float64(m.Stats().Edges) })
	shardGauge("ctc_shard_update_queue_depth",
		"Updates waiting in the shard writer's queue.",
		func(m *serve.Manager) float64 { return float64(m.Stats().QueueLen) })
	shardGauge("ctc_shard_dirty_updates",
		"Updates the shard has applied since its last publish.",
		func(m *serve.Manager) float64 { return float64(m.Stats().Dirty) })
	shardGauge("ctc_shard_degraded",
		"1 while the shard is read-only after a WAL failure, else 0.",
		func(m *serve.Manager) float64 {
			if m.Degraded() {
				return 1
			}
			return 0
		})
	shardGauge("ctc_shard_overloaded",
		"1 while the shard's admission gate is saturated, else 0.",
		func(m *serve.Manager) float64 {
			if m.Overloaded() {
				return 1
			}
			return 0
		})

	r.metrics.phase = reg.NewHistogramVec("ctc_router_phase_duration_seconds",
		"Wall time of one router merge-pipeline phase.", "phase", nil)
	r.metrics.scatter = r.metrics.phase.With("scatter")
	r.metrics.gather = r.metrics.phase.With("gather")
	r.metrics.merge = r.metrics.phase.With("merge")
	r.metrics.queries = reg.NewCounterVec("ctc_router_queries_total",
		"Merged (scatter-gather) router queries, by outcome.", "outcome")
	r.metrics.partialHits = reg.NewCounter("ctc_router_partial_hits_total",
		"Scatter partials that found a local community on some shard.")
	r.metrics.gatherVerts = reg.NewGauge("ctc_router_gather_vertices",
		"Component vertices reconstructed by the last gather.")
	r.metrics.gatherEdges = reg.NewGauge("ctc_router_gather_edges",
		"Union-graph edges reconstructed by the last gather.")
}

func shardLabel(i int) string { return strconv.Itoa(i) }

// observePhases records one merge pipeline's phase timings and gather
// sizes, and logs it at Debug.
func (r *Router) observePhases(scatter, gather, merge time.Duration, compVerts, unionEdges, partialsFound int) {
	r.metrics.scatter.Observe(scatter)
	r.metrics.gather.Observe(gather)
	r.metrics.merge.Observe(merge)
	r.metrics.partialHits.Add(int64(partialsFound))
	r.metrics.gatherVerts.Set(int64(compVerts))
	r.metrics.gatherEdges.Set(int64(unionEdges))
	if r.logger != nil {
		r.logger.Debug("router merge",
			"scatter", scatter, "gather", gather, "merge", merge,
			"component_vertices", compVerts, "union_edges", unionEdges,
			"partials_found", partialsFound)
	}
}

// observeQuery feeds one finished merged query into the outcome counter
// and the router's tracer (per-algo latency histograms, slow-query log).
func (r *Router) observeQuery(req core.Request, res *core.Result, err error, total time.Duration) {
	r.metrics.queries.With(routerOutcome(err)).Inc()
	if r.tracer == nil {
		return
	}
	rec := telemetry.QueryRecord{
		Algo:    req.Algo.String(),
		Tenant:  req.Tenant,
		Outcome: routerOutcome(err),
		Total:   total,
	}
	if res != nil {
		st := &res.Stats
		rec.Epoch = st.Epoch
		rec.Seed, rec.Expand, rec.Peel = st.Seed, st.Expand, st.Peel
		rec.SeedEdges, rec.PeelRounds, rec.EdgesPeeled = st.SeedEdges, st.PeelRounds, st.EdgesPeeled
	}
	r.tracer.Observe(rec)
}

// routerOutcome classifies a merged-query error into the bounded outcome
// label set (the same taxonomy as the single-manager query plane).
func routerOutcome(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, serve.ErrOverloaded):
		return "shed"
	case errors.Is(err, context.Canceled):
		return "canceled"
	case errors.Is(err, context.DeadlineExceeded):
		return "deadline"
	case errors.Is(err, trussindex.ErrNoCommunity),
		errors.Is(err, truss.ErrNoCommunity),
		errors.Is(err, steiner.ErrDisconnected):
		return "no_community"
	case errors.Is(err, core.ErrEmptyQuery),
		errors.Is(err, core.ErrVertexOutOfRange),
		errors.Is(err, core.ErrBadParam):
		return "bad_request"
	default:
		return "error"
	}
}
