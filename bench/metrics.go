package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// metricDef declares one reported metric. BENCHMARK.json lists exactly the
// names, units and directions of this table (TestBenchmarkJSONMatchesCode),
// so the table is the single place a metric is defined.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" | "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
	Exact  bool    // per-layer only: a count of the ladder that repeats exactly on the same seed
}

// endToEnd are the metrics a client of ctcserve sees. Every workload reports
// every one of them and none is ever 0. The bounds are three times the
// run-to-run quartile spread measured on the 2-vCPU VM this was written on
// (4-6 % on the millisecond workloads, 8-15 % on the sub-millisecond cache
// hits of coldstart_hotcache), capped at the 0.25 the driver allows; a bound
// holds for a metric on every workload, so the noisiest workload sets it.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "query_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "query_p90_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "query_qps", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "rss_peak_mb", Unit: "MB", Better: "lower", Bound: 0.25},
}

// perLayer are the single-layer metrics of the traced run. A metric of a
// layer the workload does not exercise (the write ladder outside mixed_wal,
// the shard probe outside read_seed) reads 0 with sample count 0.
var perLayer = []metricDef{
	// Read ladder: each rung contains the next; *_tax_ms / other_ms are the
	// self times, so that tax + tax + seed + expand + peel + other equals
	// ctcserve.query_ms exactly.
	{Name: "ctcserve.query_ms", Unit: "ms", Better: "lower"},
	{Name: "ctcserve.tax_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.query_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.tax_ms", Unit: "ms", Better: "lower"},
	{Name: "core.search_ms", Unit: "ms", Better: "lower"},
	{Name: "core.seed_ms", Unit: "ms", Better: "lower"},
	{Name: "core.expand_ms", Unit: "ms", Better: "lower"},
	{Name: "core.peel_ms", Unit: "ms", Better: "lower"},
	{Name: "core.other_ms", Unit: "ms", Better: "lower"},
	{Name: "trussindex.find_g0_ms", Unit: "ms", Better: "lower"},
	{Name: "steiner.build_ms", Unit: "ms", Better: "lower"},
	{Name: "admit.cache_hit_ms", Unit: "ms", Better: "lower"},
	{Name: "core.search_allocs", Unit: "count", Better: "lower"},
	{Name: "core.search_bytes", Unit: "B", Better: "lower"},
	{Name: "core.seed_edges", Unit: "count", Better: "lower", Exact: true},
	{Name: "core.peel_rounds", Unit: "count", Better: "lower", Exact: true},
	{Name: "core.edges_peeled", Unit: "count", Better: "lower", Exact: true},
	{Name: "core.answer_k_mean", Unit: "count", Better: "higher", Exact: true},
	{Name: "core.answer_n_mean", Unit: "count", Better: "lower", Exact: true},
	{Name: "ctcserve.resp_bytes", Unit: "B", Better: "lower"},
	// Cold ladder: what a start-up pays on this workload's graph.
	{Name: "gen.network_ms", Unit: "ms", Better: "lower"},
	{Name: "graph.edge_supports_ms", Unit: "ms", Better: "lower"},
	{Name: "truss.decompose_ms", Unit: "ms", Better: "lower"},
	{Name: "truss.decompose_parallel_p1_ms", Unit: "ms", Better: "lower"},
	{Name: "truss.decompose_parallel_p2_ms", Unit: "ms", Better: "lower"},
	{Name: "trussindex.build_ms", Unit: "ms", Better: "lower"},
	{Name: "trussindex.index_bytes", Unit: "B", Better: "lower", Exact: true},
	// Write ladder (mixed_wal).
	{Name: "ctcserve.update_flush_ms", Unit: "ms", Better: "lower"},
	{Name: "ctcserve.update_tax_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.apply_flush_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.publish_other_ms", Unit: "ms", Better: "lower"},
	{Name: "wal.append_sync_ms", Unit: "ms", Better: "lower"},
	{Name: "truss.incremental_apply_ms", Unit: "ms", Better: "lower"},
	{Name: "truss.snapshot_ms", Unit: "ms", Better: "lower"},
	{Name: "wal.bytes_per_update", Unit: "B", Better: "lower", Exact: true},
	{Name: "wal.recovery_ms", Unit: "ms", Better: "lower"},
	// Shard probe (read_seed).
	{Name: "shard.query_ms", Unit: "ms", Better: "lower"},
	{Name: "shard.slowdown", Unit: "x", Better: "lower"},
	// The server's own telemetry, as deltas over the measured phases.
	{Name: "admit.queue_wait_mean_ms", Unit: "ms", Better: "lower"},
	{Name: "admit.shed_total", Unit: "count", Better: "lower"},
	{Name: "admit.cache_hit_share", Unit: "share", Better: "higher"},
	{Name: "serve.publishes", Unit: "count", Better: "lower"},
	{Name: "serve.publish_mean_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.full_rebuilds", Unit: "count", Better: "lower"},
	{Name: "wal.syncs", Unit: "count", Better: "lower"},
	{Name: "wal.fsync_mean_ms", Unit: "ms", Better: "lower"},
	{Name: "trussindex.workspace_fresh_share", Unit: "share", Better: "lower"},
	{Name: "ctcserve.cpu_ms_per_query", Unit: "ms", Better: "lower"},
	// The update path as a client sees it (mixed_wal). These would be
	// end-to-end metrics if every workload had them; see README.
	{Name: "client.update_visible_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "client.update_visible_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "client.update_eps", Unit: "1/s", Better: "higher"},
	// The load generator itself.
	{Name: "client.sent", Unit: "count", Better: "higher"},
	{Name: "client.ok", Unit: "count", Better: "higher"},
	{Name: "client.failed", Unit: "count", Better: "lower"},
	{Name: "client.checked", Unit: "count", Better: "higher"},
	{Name: "client.failed_share", Unit: "share", Better: "lower"},
	{Name: "client.send_late_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "client.query_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "client.closed_mean_ms", Unit: "ms", Better: "lower"},
}

// value is one measured metric: the number, its unit, and how many samples
// stand behind it (0 = the workload does not exercise that layer).
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

// metricSet collects the values of one run by name.
type metricSet map[string]value

func (ms metricSet) put(name string, v float64, n int) { ms[name] = value{Value: v, N: n} }

// finish keeps exactly the metrics of defs, stamping each with its declared
// unit; a missing one reads 0 with no samples, and an infinite one (a
// percentile that reached into failed requests) is clamped so that the
// result stays valid JSON.
func (ms metricSet) finish(defs []metricDef) metricSet {
	out := make(metricSet, len(defs))
	for _, d := range defs {
		v := ms[d.Name]
		v.Unit = d.Unit
		if math.IsInf(v.Value, 0) || math.IsNaN(v.Value) {
			v.Value = 1e12
		}
		out[d.Name] = v
	}
	return out
}

// contractLine is the one JSON object the builder contract wants as the
// last line of standard output.
func contractLine(correct bool, attempted, failed int, ms metricSet) string {
	type cv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]cv `json:"metrics"`
	}{correct, attempted, failed, make(map[string]cv, len(ms))}
	for name, v := range ms {
		out.Metrics[name] = cv{v.Value, v.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil { // only unrepresentable floats can fail, and finish removed them
		panic(err)
	}
	return string(b)
}

// printMetrics writes every metric of defs by name, with unit and sample
// count, in table order.
func printMetrics(w io.Writer, title string, defs []metricDef, ms metricSet) {
	fmt.Fprintf(w, "  %s\n", title)
	for _, d := range defs {
		v := ms[d.Name]
		if v.N == 0 {
			fmt.Fprintf(w, "    %-36s %14s %-5s (not exercised by this workload)\n", d.Name, "-", d.Unit)
			continue
		}
		fmt.Fprintf(w, "    %-36s %14.4f %-5s n=%d\n", d.Name, v.Value, d.Unit, v.N)
	}
}
