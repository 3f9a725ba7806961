package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/steiner"
	"repro/internal/truss"
	"repro/internal/trussindex"
	"repro/internal/wal"
)

// span is one timed call into a layer. The ladder times the same inputs at
// every layer boundary in separate, sequential executions, so Parent names
// the span's logical parent — the layer whose call contains this one in the
// running system — and Req ties together the spans of one input.
type span struct {
	Name    string `json:"name"`
	Parent  string `json:"parent,omitempty"`
	Req     int    `json:"req"`
	StartNS int64  `json:"start_ns"` // since the ladder began
	EndNS   int64  `json:"end_ns"`
}

// tracer keeps the spans in memory; they are written out when the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) add(name, parent string, req int, start time.Time, d time.Duration) {
	s := start.Sub(t.t0).Nanoseconds()
	t.spans = append(t.spans, span{Name: name, Parent: parent, Req: req, StartNS: s, EndNS: s + d.Nanoseconds()})
}

// time runs fn as one span.
func (t *tracer) time(name, parent string, req int, fn func()) {
	start := time.Now()
	fn()
	t.add(name, parent, req, start, time.Since(start))
}

// meanMS is the mean duration of the spans called name, and their number.
func (t *tracer) meanMS(name string) (float64, int) {
	var sum int64
	n := 0
	for _, s := range t.spans {
		if s.Name == name {
			sum += s.EndNS - s.StartNS
			n++
		}
	}
	if n == 0 {
		return 0, 0
	}
	return float64(sum) / float64(n) / 1e6, n
}

func (t *tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// rung is one level of a ladder: the span that times a layer's public entry
// point, the metric that carries the rung's self time, and the rungs it
// contains. A rung without children is all self time and has no Self metric.
type rung struct {
	Span     string // metric name is Span + "_ms"
	Self     string
	Children []rung
}

var readLadder = rung{Span: "ctcserve.query", Self: "ctcserve.tax_ms", Children: []rung{
	{Span: "serve.query", Self: "serve.tax_ms", Children: []rung{
		{Span: "core.search", Self: "core.other_ms", Children: []rung{
			{Span: "core.seed"}, {Span: "core.expand"}, {Span: "core.peel"},
		}},
	}},
}}

var writeLadder = rung{Span: "ctcserve.update_flush", Self: "ctcserve.update_tax_ms", Children: []rung{
	{Span: "serve.apply_flush", Self: "serve.publish_other_ms", Children: []rung{
		{Span: "wal.append_sync"}, {Span: "truss.incremental_apply"},
		{Span: "truss.snapshot"}, {Span: "trussindex.build"},
	}},
}}

// report writes the mean of every rung of r and every self time into m. The
// means are over the same inputs, so a rung's self time is its mean minus
// its children's means, and the self times of the whole ladder (leaves
// included) add up to the top rung's mean.
func (r rung) report(t *tracer, m metricSet) {
	mean, n := t.meanMS(r.Span)
	m.put(r.Span+"_ms", mean, n)
	if len(r.Children) == 0 {
		return
	}
	self := mean
	for _, c := range r.Children {
		c.report(t, m)
		self -= m[c.Span+"_ms"].Value
	}
	m.put(r.Self, self, n)
}

// shardProbeQueries is how many of the ladder's queries also go through
// the 2-shard router: a routed query costs several times a direct one, and
// the traced run has to fit the benchmark's time cap.
const shardProbeQueries = 25

// ladderWarmup is how many unmeasured inputs precede each rung's pass, so
// that no rung pays a first-call allocation the others do not.
const ladderWarmup = 3

// runLadders is the traced run: it times calls into each layer's public
// functions, in process and one goroutine, on the first inputs of the
// workload's own stream, against a fresh server of the workload's
// configuration for the HTTP rungs. Every call is a span; the spans go to
// trace-<workload>.jsonl in cfg.buildDir.
func runLadders(ctx context.Context, cfg runConfig, w workload, p *prepared, st *stream, m metricSet) error {
	inputs := st.ladder
	if len(inputs) < w.LadderQueries+ladderWarmup {
		return fmt.Errorf("%s: stream has %d ladder inputs, need %d", w.Name, len(inputs), w.LadderQueries+ladderWarmup)
	}
	warm, queries := inputs[w.LadderQueries:w.LadderQueries+ladderWarmup], inputs[:w.LadderQueries]

	workDir, err := os.MkdirTemp(cfg.buildDir, "ladder-"+w.Name+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(workDir)
	walDir := ""
	if w.WAL {
		walDir = filepath.Join(workDir, "wal-child")
	}
	c, err := startChild(ctx, cfg.serverBin, w, walDir)
	if err != nil {
		return err
	}
	defer c.stop(syscall.SIGTERM)

	t := &tracer{t0: time.Now()}
	if err := readLadderRun(ctx, t, c, p, warm, queries, m); err != nil {
		return err
	}
	coldLadderRun(p, m)
	if w.LadderBatches > 0 {
		if err := writeLadderRun(ctx, t, c, p, w, cfg.seed, workDir, m); err != nil {
			return err
		}
	}
	if w.ShardProbe {
		if err := shardProbeRun(ctx, t, p, warm, queries[:shardProbeQueries], m); err != nil {
			return err
		}
	}
	return t.writeFile(filepath.Join(cfg.buildDir, "trace-"+w.Name+".jsonl"))
}

func readLadderRun(ctx context.Context, t *tracer, c *child, p *prepared, warm, queries []request, m metricSet) error {
	// Rung 1: the server over HTTP, sequentially on one connection.
	var respBytes int
	httpQuery := func(r *request) error {
		status, body, err := c.post(ctx, "/query", r.body)
		if err != nil || status != http.StatusOK {
			return fmt.Errorf("ladder: /query %s: status %d, %v", r.body, status, err)
		}
		respBytes += len(body)
		return nil
	}
	for i := range warm {
		if err := httpQuery(&warm[i]); err != nil {
			return err
		}
	}
	respBytes = 0
	for i := range queries {
		var err error
		t.time("ctcserve.query", "", i, func() { err = httpQuery(&queries[i]) })
		if err != nil {
			return err
		}
	}
	m.put("ctcserve.resp_bytes", float64(respBytes)/float64(len(queries)), len(queries))

	// Rung 2: Manager.Query with default options (gate, cache and all).
	mgr := serve.NewManagerFromIndex(p.ix, serve.Options{})
	defer mgr.Close()
	for i := range warm {
		if _, err := mgr.Query(ctx, core.Request{Q: warm[i].q}); err != nil {
			return err
		}
	}
	for i := range queries {
		var err error
		t.time("serve.query", "ctcserve.query", i, func() { _, err = mgr.Query(ctx, core.Request{Q: queries[i].q}) })
		if err != nil {
			return fmt.Errorf("ladder: Manager.Query %v: %w", queries[i].q, err)
		}
	}

	// Rung 3: Searcher.Search; its phases come from the returned stats, and
	// the allocation counts from the runtime's counters around the pass. The
	// collector is off for the pass: a collection empties the workspace pool,
	// and the searches that then allocate a fresh workspace would make the
	// counts depend on when the collector happened to run. The warm-up
	// searches come after the collection for the same reason.
	var seedEdges, peelRounds, edgesPeeled, answerK, answerN float64
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	gcPercent := debug.SetGCPercent(-1)
	defer debug.SetGCPercent(gcPercent)
	for i := range warm {
		if _, err := p.searcher.Search(ctx, core.Request{Q: warm[i].q}); err != nil {
			return err
		}
	}
	runtime.ReadMemStats(&ms0)
	for i := range queries {
		start := time.Now()
		res, err := p.searcher.Search(ctx, core.Request{Q: queries[i].q})
		d := time.Since(start)
		if err != nil {
			return fmt.Errorf("ladder: Search %v: %w", queries[i].q, err)
		}
		t.add("core.search", "serve.query", i, start, d)
		s := res.Stats
		t.add("core.seed", "core.search", i, start, s.Seed)
		t.add("core.expand", "core.search", i, start.Add(s.Seed), s.Expand)
		t.add("core.peel", "core.search", i, start.Add(s.Seed+s.Expand), s.Peel)
		seedEdges += float64(s.SeedEdges)
		peelRounds += float64(s.PeelRounds)
		edgesPeeled += float64(s.EdgesPeeled)
		answerK += float64(res.K)
		answerN += float64(res.N())
	}
	runtime.ReadMemStats(&ms1)
	debug.SetGCPercent(gcPercent)
	n := len(queries)
	fn := float64(n)
	m.put("core.search_allocs", float64(ms1.Mallocs-ms0.Mallocs)/fn, n)
	m.put("core.search_bytes", float64(ms1.TotalAlloc-ms0.TotalAlloc)/fn, n)
	m.put("core.seed_edges", seedEdges/fn, n)
	m.put("core.peel_rounds", peelRounds/fn, n)
	m.put("core.edges_peeled", edgesPeeled/fn, n)
	m.put("core.answer_k_mean", answerK/fn, n)
	m.put("core.answer_n_mean", answerN/fn, n)
	readLadder.report(t, m)

	// Side probes, outside the ladder's sum: the two seed constructions on
	// their own, and a repeated Manager.Query, which the result cache answers.
	ws := p.ix.AcquireWorkspace()
	defer ws.Release()
	for i := range queries {
		q := queries[i].q
		var err error
		t.time("trussindex.find_g0", "", i, func() { _, _, err = p.ix.FindG0W(q, ws) })
		if err != nil {
			return fmt.Errorf("ladder: FindG0W %v: %w", q, err)
		}
		t.time("steiner.build", "core.seed", i, func() { _, err = steiner.BuildW(p.ix, q, 3, ws) })
		if err != nil {
			return fmt.Errorf("ladder: steiner.BuildW %v: %w", q, err)
		}
		var res *core.Result
		t.time("admit.cache_hit", "serve.query", i, func() { res, err = mgr.Query(ctx, core.Request{Q: q}) })
		if err != nil || !res.Stats.CacheHit {
			return fmt.Errorf("ladder: repeated Manager.Query %v was not a cache hit (err %v)", q, err)
		}
	}
	for _, name := range []string{"trussindex.find_g0", "steiner.build", "admit.cache_hit"} {
		mean, n := t.meanMS(name)
		m.put(name+"_ms", mean, n)
	}
	return nil
}

// timeMedian runs fn a few times — at least once, at most five times, and
// no longer than about 400 ms in all — and returns the median in ms.
func timeMedian(fn func()) (float64, int) {
	var ds []float64
	begin := time.Now()
	for len(ds) < 5 && (len(ds) == 0 || time.Since(begin) < 400*time.Millisecond) {
		t0 := time.Now()
		fn()
		ds = append(ds, ms(time.Since(t0)))
	}
	return median(ds), len(ds)
}

type countingWriter struct{ n int64 }

func (cw *countingWriter) Write(b []byte) (int, error) {
	cw.n += int64(len(b))
	return len(b), nil
}

// coldLadderRun times what a start-up pays on this workload's graph.
// Generation, Decompose and the index build were timed once in prepare; the
// rest is timed here.
func coldLadderRun(p *prepared, m metricSet) {
	m.put("gen.network_ms", p.genMS, 1)
	m.put("truss.decompose_ms", p.decomposeMS, 1)
	m.put("trussindex.build_ms", p.buildMS, 1)
	v, n := timeMedian(func() { graph.EdgeSupports(p.g) })
	m.put("graph.edge_supports_ms", v, n)
	for _, procs := range []int{1, 2} {
		prev := runtime.GOMAXPROCS(procs)
		v, n = timeMedian(func() { truss.DecomposeParallel(p.g) })
		runtime.GOMAXPROCS(prev)
		m.put(fmt.Sprintf("truss.decompose_parallel_p%d_ms", procs), v, n)
	}
	var cw countingWriter
	if _, err := p.ix.WriteTo(&cw); err == nil {
		m.put("trussindex.index_bytes", float64(cw.n), 1)
	}
}

// writeLadderRun times one 10-edge flush batch at every layer of the write
// path, on the first batches of the workload's update stream.
func writeLadderRun(ctx context.Context, t *tracer, c *child, p *prepared, w workload, seed uint64, workDir string, m metricSet) error {
	upd := newUpdater(seed, p.g)
	batches := make([]request, w.LadderBatches)
	for i := range batches {
		batches[i] = upd.batch(openBatchEdges)
	}

	// Rung 1: POST /update with flush to the server.
	for i := range batches {
		var status int
		var err error
		t.time("ctcserve.update_flush", "", i, func() { status, _, err = c.post(ctx, "/update", batches[i].body) })
		if err != nil || status != http.StatusOK {
			return fmt.Errorf("ladder: /update: status %d, %v", status, err)
		}
	}

	// Rung 2: Apply x10 + Flush on a durable manager.
	mgr, _, err := serve.OpenDurable(filepath.Join(workDir, "wal-manager"),
		func() (*trussindex.Index, error) { return p.ix, nil }, wal.Options{}, serve.Options{})
	if err != nil {
		return fmt.Errorf("ladder: OpenDurable: %w", err)
	}
	defer mgr.Close()
	for i := range batches {
		var err error
		t.time("serve.apply_flush", "ctcserve.update_flush", i, func() {
			for _, op := range batches[i].ops {
				up := serve.Update{Op: serve.OpRemove, U: op.u, V: op.v}
				if op.add {
					up.Op = serve.OpAdd
				}
				if err = mgr.Apply(up); err != nil {
					return
				}
			}
			err = mgr.Flush()
		})
		if err != nil {
			return fmt.Errorf("ladder: Apply/Flush: %w", err)
		}
	}

	// Rung 3: the parts of a publish, each on scratch state of its own.
	log, err := wal.Open(filepath.Join(workDir, "wal-scratch"), wal.Options{})
	if err != nil {
		return fmt.Errorf("ladder: wal.Open: %w", err)
	}
	defer log.Close()
	inc := truss.ResumeIncremental(graph.NewMutable(p.g, nil), append([]int32(nil), p.dec.Truss...))
	updates := 0
	for i := range batches {
		rec := make([]wal.Update, len(batches[i].ops))
		for j, op := range batches[i].ops {
			rec[j] = wal.Update{Op: wal.OpRemove, U: op.u, V: op.v}
			if op.add {
				rec[j].Op = wal.OpAdd
			}
		}
		updates += len(rec)
		var err error
		t.time("wal.append_sync", "serve.apply_flush", i, func() {
			if err = log.Append(uint64(i+1), rec); err == nil {
				err = log.Sync()
			}
		})
		if err != nil {
			return fmt.Errorf("ladder: wal append/sync: %w", err)
		}
		t.time("truss.incremental_apply", "serve.apply_flush", i, func() {
			for _, op := range batches[i].ops {
				if op.add {
					inc.InsertEdge(op.u, op.v)
				} else {
					inc.DeleteEdge(op.u, op.v)
				}
			}
		})
		var d *truss.Decomposition
		t.time("truss.snapshot", "serve.apply_flush", i, func() { d = inc.Snapshot() })
		t.time("trussindex.build", "serve.apply_flush", i, func() { trussindex.BuildFromDecomposition(d.G, d) })
	}
	m.put("wal.bytes_per_update", float64(log.Stats().Bytes)/float64(updates), updates)
	writeLadder.report(t, m)
	return nil
}

// shardProbeRun times the ladder's queries through a 2-shard router over
// the same graph. shard.slowdown is their mean over the mean of
// serve.query on the same queries: the number the keep-or-delete rule for
// the shard tier reads (keep it only if this is at most 1.5).
func shardProbeRun(ctx context.Context, t *tracer, p *prepared, warm, queries []request, m metricSet) error {
	r, err := shard.New(p.g, shard.Config{Shards: 2, Seed: 1})
	if err != nil {
		return fmt.Errorf("ladder: shard.New: %w", err)
	}
	defer r.Close()
	for i := range warm {
		if _, err := r.Query(ctx, core.Request{Q: warm[i].q}); err != nil {
			return err
		}
	}
	for i := range queries {
		var err error
		t.time("shard.query", "", i, func() { _, err = r.Query(ctx, core.Request{Q: queries[i].q}) })
		if err != nil {
			return fmt.Errorf("ladder: Router.Query %v: %w", queries[i].q, err)
		}
	}
	mean, n := t.meanMS("shard.query")
	m.put("shard.query_ms", mean, n)
	var single int64
	for _, s := range t.spans {
		if s.Name == "serve.query" && s.Req < n {
			single += s.EndNS - s.StartNS
		}
	}
	m.put("shard.slowdown", mean*1e6*float64(n)/float64(single), n)
	return nil
}
