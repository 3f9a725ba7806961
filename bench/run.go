package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/truss"
	"repro/internal/trussindex"
)

// runConfig is what one run of one workload needs beyond the workload.
type runConfig struct {
	serverBin string
	buildDir  string // scratch space inside the checkout: WAL dirs, span files
	seed      uint64
	seconds   float64       // measured time: open phase + closed phase
	warmup    time.Duration // unmeasured closed-loop warm-up before the open phase
	trace     bool          // also run the ladders and report the per-layer metrics
	setups    int           // > 0 overrides the workload's number of timed cold starts
}

// checkEvery is the answer-checking stride: every checkEvery-th /query
// response of a phase is compared with an in-process search.
const checkEvery = 20

// maxOracleSearches bounds the in-process searches one run spends on answer
// checking (they are memoised per query, and run after the server has been
// measured so that they do not compete with it for the two cores).
const maxOracleSearches = 32

// lateFloorMS is the generator lateness no run is blamed for: a run is
// invalid when the p99 of its send lateness exceeds a tenth of its
// query_p50_ms, but not below this floor, which is the wake-up jitter of a
// shared two-core box (it only matters for the sub-millisecond cache hits).
const lateFloorMS = 0.1

// runResult is one run of one workload.
type runResult struct {
	Workload  string    `json:"workload"`
	Seed      uint64    `json:"seed"`
	Trace     bool      `json:"trace"`
	Valid     bool      `json:"valid"`
	Invalid   []string  `json:"invalid,omitempty"` // why not, when !Valid
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

// prepared is the generator's own copy of the workload's graph and index:
// the source of the request stream, the answer-checking oracle, and the
// input of the in-process ladders. Building it is timed, because those
// timings are the first rungs of the cold ladder.
type prepared struct {
	g        *graph.Graph
	truth    [][]int
	dec      *truss.Decomposition
	ix       *trussindex.Index
	searcher *core.Searcher

	genMS, decomposeMS, buildMS float64
}

func prepare(w workload) (*prepared, error) {
	// gen.Networks returns fresh, ungenerated networks (NetworkByName would
	// hand back a process-wide cached one), so generation is really timed.
	var nw *gen.Network
	for _, cand := range gen.Networks() {
		if cand.Name == w.Net {
			nw = cand
		}
	}
	if nw == nil {
		return nil, fmt.Errorf("workload %s: unknown network %q", w.Name, w.Net)
	}
	p := &prepared{}
	t0 := time.Now()
	p.g = nw.Graph()
	p.genMS = ms(time.Since(t0))
	p.truth = nw.GroundTruth()
	t0 = time.Now()
	p.dec = truss.Decompose(p.g)
	p.decomposeMS = ms(time.Since(t0))
	t0 = time.Now()
	p.ix = trussindex.BuildFromDecomposition(p.g, p.dec)
	p.buildMS = ms(time.Since(t0))
	p.searcher = core.NewSearcher(p.ix)
	return p, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// answer is the part of a /query response the benchmark checks.
type answer struct {
	K        int32 `json:"k"`
	N        int   `json:"n"`
	M        int   `json:"m"`
	Vertices []int `json:"vertices"`
}

// checked is one sampled response kept for answer checking.
type checked struct {
	q   []int
	got answer
}

// loadClient sends the generated requests to one child and keeps what the
// run needs from the responses.
type loadClient struct {
	c       *child
	mu      sync.Mutex
	sampled []checked
}

// do is the doFunc of the measured phases: any transport error or non-200
// status is a failure; every checkEvery-th query response is decoded and
// kept for checking.
func (lc *loadClient) do(ctx context.Context, _ int, seq int, r *request) bool {
	path := "/query"
	if r.update {
		path = "/update"
	}
	status, body, err := lc.c.post(ctx, path, r.body)
	if err != nil || status != http.StatusOK {
		return false
	}
	if r.update {
		return bytes.Contains(body, []byte(`"flushed":true`))
	}
	if seq%checkEvery != 0 {
		return len(body) > 0
	}
	var a answer
	if err := json.Unmarshal(body, &a); err != nil {
		return false
	}
	lc.mu.Lock()
	lc.sampled = append(lc.sampled, checked{q: r.q, got: a})
	lc.mu.Unlock()
	return true
}

// verify compares the sampled responses with the truth and returns how many
// were compared and how many were wrong. On a graph that stays fixed the
// truth is an in-process Searcher.Search with Request.Verify set (the answer
// is re-checked against the community definition there); under updates the
// generator has no index of each epoch, so it checks what holds on any
// epoch: the answer is a k-truss candidate (k >= 2) that contains Q and
// whose vertex list matches its size.
func (lc *loadClient) verify(ctx context.Context, p *prepared, fixedGraph bool) (compared, wrong int) {
	oracle := map[string]*answer{}
	for _, s := range lc.sampled {
		if !fixedGraph {
			compared++
			if !plausible(s.q, s.got) {
				wrong++
			}
			continue
		}
		key := fmt.Sprint(sortedInts(s.q))
		want, ok := oracle[key]
		if !ok {
			if len(oracle) >= maxOracleSearches {
				continue
			}
			res, err := p.searcher.Search(ctx, core.Request{Q: s.q, Verify: true})
			if err == nil {
				want = &answer{K: res.K, N: res.N(), M: res.M(), Vertices: res.Vertices()}
			}
			oracle[key] = want
		}
		compared++
		if want == nil || want.K != s.got.K || want.N != s.got.N || want.M != s.got.M ||
			!slices.Equal(sortedInts(want.Vertices), sortedInts(s.got.Vertices)) {
			wrong++
		}
	}
	return compared, wrong
}

func plausible(q []int, a answer) bool {
	if a.K < 2 || a.N != len(a.Vertices) || a.N < len(q) {
		return false
	}
	in := make(map[int]bool, len(a.Vertices))
	for _, v := range a.Vertices {
		in[v] = true
	}
	for _, v := range q {
		if !in[v] {
			return false
		}
	}
	return true
}

func sortedInts(xs []int) []int {
	s := slices.Clone(xs)
	slices.Sort(s)
	return s
}

// runWorkload runs every phase of w once and returns its metrics: the
// end-to-end ones always, the per-layer ones too when cfg.trace is set.
func runWorkload(ctx context.Context, cfg runConfig, w workload) (*runResult, error) {
	p, err := prepare(w)
	if err != nil {
		return nil, err
	}
	hotWarmD, openD, closedD := w.phases(cfg.seconds)
	st, err := buildStream(w, cfg.seed, p.g, p.truth, hotWarmD, openD, closedD)
	if err != nil {
		return nil, err
	}
	workDir, err := os.MkdirTemp(cfg.buildDir, "run-"+w.Name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(workDir)

	res := &runResult{Workload: w.Name, Seed: cfg.seed, Trace: cfg.trace, Metrics: metricSet{}}
	m := res.Metrics

	// Cold starts. Each one builds the index from nothing (a fresh -wal
	// directory, so a durable server initialises rather than recovers);
	// the last server stays up for the load phases.
	setups := w.Setups
	if cfg.setups > 0 {
		setups = cfg.setups
	}
	var c *child
	var walDir string
	var setupS []float64
	for i := 0; i < setups; i++ {
		if c != nil {
			c.stop(syscall.SIGTERM)
		}
		if w.WAL {
			walDir = filepath.Join(workDir, fmt.Sprintf("wal-%d", i))
		}
		if c, err = startChild(ctx, cfg.serverBin, w, walDir); err != nil {
			return nil, err
		}
		setupS = append(setupS, c.setup.Seconds())
	}
	defer func() { c.stop(syscall.SIGKILL) }() // a no-op once the run has stopped it
	m.put("setup_s", median(setupS), len(setupS))

	lc := &loadClient{c: c}

	// Warm-up, unmeasured: lets the workspace pool, the admission
	// estimator and the connections settle. A hot-cache workload sends each
	// of its distinct requests exactly once, which fills the result cache,
	// and then runs its open-phase traffic for a while (see phases).
	warmD := cfg.warmup
	if w.Hot > 0 {
		warmD = time.Hour
	}
	var warmNext atomic.Int64
	warm, _ := runClosed(ctx, warmD, func(int) (request, bool) {
		i := int(warmNext.Add(1)) - 1
		if i >= len(st.warm) {
			return request{}, false
		}
		return st.warm[i], true
	}, lc.do)
	for _, conn := range warm {
		for _, s := range conn {
			if !s.ok {
				return nil, fmt.Errorf("%s: a warm-up request failed", w.Name)
			}
		}
	}

	for _, s := range runOpen(ctx, st.hotWarm, lc.do) {
		if !s.ok {
			return nil, fmt.Errorf("%s: a warm-up request failed", w.Name)
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	before, err := c.scrape(ctx)
	if err != nil {
		return nil, err
	}
	open := runOpen(ctx, st.open, lc.do)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	mid, err := c.scrape(ctx)
	if err != nil {
		return nil, err
	}
	closed, ran := runClosed(ctx, closedD, st.closed, lc.do)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	after, err := c.scrape(ctx)
	if err != nil {
		return nil, err
	}
	rss, err := procPeakRSS(c.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	m.put("rss_peak_mb", float64(rss)/(1<<20), 1)

	sentOpen, okOpen := openMetrics(open, m)
	sentClosed, okClosed, closedQueries := closedMetrics(closed, ran, m)
	sent, okCount := sentOpen+sentClosed, okOpen+okClosed
	telemetryMetrics(w, before, after, sent, m)
	if closedQueries > 0 {
		m.put("ctcserve.cpu_ms_per_query", ms(after.CPU-mid.CPU)/float64(closedQueries), closedQueries)
	}

	// Checks that need the server: under updates, its edge count must equal
	// the generator's replay of the acknowledged batches — now, and again
	// after a SIGKILL and a restart on the same -wal directory.
	failed := sent - okCount
	attempted := sent
	if st.upd != nil {
		attempted += 2
		if after.Stats.Edges != st.upd.m || after.Stats.Degraded {
			fmt.Fprintf(os.Stderr, "%s: server has m=%d degraded=%v, the generator's replay has m=%d\n",
				w.Name, after.Stats.Edges, after.Stats.Degraded, st.upd.m)
			failed++
		}
		c.stop(syscall.SIGKILL)
		restarted, err := startChild(ctx, cfg.serverBin, w, walDir)
		if err != nil {
			return nil, err
		}
		c = restarted
		m.put("wal.recovery_ms", ms(c.setup), 1)
		recovered, err := c.scrape(ctx)
		if err != nil {
			return nil, err
		}
		if recovered.Stats.Edges != st.upd.m {
			fmt.Fprintf(os.Stderr, "%s: after kill -9 and recovery the server has m=%d, the generator's replay has m=%d\n",
				w.Name, recovered.Stats.Edges, st.upd.m)
			failed++
		}
	}
	c.stop(syscall.SIGTERM)

	compared, wrong := lc.verify(ctx, p, st.upd == nil)
	failed += wrong
	m.put("client.checked", float64(compared), 1)
	m.put("client.sent", float64(sent), 1)
	m.put("client.ok", float64(okCount), 1)
	m.put("client.failed", float64(failed), 1)
	m.put("client.failed_share", float64(failed)/float64(attempted), attempted)
	res.Attempted, res.Failed = attempted, failed

	if cfg.trace {
		if err := runLadders(ctx, cfg, w, p, st, m); err != nil {
			return nil, err
		}
	}

	// Validity: the numbers mean what they say only on two cores, with no
	// failed request, and with a generator that kept its own schedule.
	if n := runtime.NumCPU(); n < 2 {
		res.Invalid = append(res.Invalid, fmt.Sprintf("nproc=%d, need 2", n))
	}
	if failed > 0 {
		res.Invalid = append(res.Invalid, fmt.Sprintf("%d of %d requests or checks failed", failed, attempted))
	}
	if lateP99, limit := m["client.send_late_p99_ms"].Value, math.Max(m["query_p50_ms"].Value/10, lateFloorMS); lateP99 > limit {
		res.Invalid = append(res.Invalid, fmt.Sprintf("generator ran late: send_late_p99 %.3f ms > %.3f ms", lateP99, limit))
	}
	res.Valid = len(res.Invalid) == 0
	return res, nil
}

// openMetrics summarises the open phase: latencies from the due time, a
// failure counting as +Inf.
func openMetrics(open []sample, m metricSet) (sent, ok int) {
	var qLat, uLat, late []float64
	for _, s := range open {
		sent++
		l := math.Inf(1)
		if s.ok {
			ok++
			l = ms(s.latency)
		}
		if s.req.update {
			uLat = append(uLat, l)
		} else {
			qLat = append(qLat, l)
		}
		late = append(late, ms(s.late))
	}
	sort.Float64s(qLat)
	sort.Float64s(uLat)
	sort.Float64s(late)
	m.put("query_p50_ms", percentile(qLat, 0.50), len(qLat))
	m.put("query_p90_ms", percentile(qLat, 0.90), len(qLat))
	if highestSupported(len(qLat)) >= 0.99 {
		m.put("client.query_p99_ms", percentile(qLat, 0.99), len(qLat))
	}
	m.put("client.send_late_p99_ms", percentile(late, 0.99), len(late))
	if len(uLat) > 0 {
		m.put("client.update_visible_p50_ms", percentile(uLat, 0.50), len(uLat))
		if highestSupported(len(uLat)) >= 0.90 {
			m.put("client.update_visible_p90_ms", percentile(uLat, 0.90), len(uLat))
		}
	}
	return sent, ok
}

// closedMetrics summarises the closed phase: completed OK requests per
// second, each connection timed on its own, since the last request of each
// ends after the deadline.
func closedMetrics(closed [conns][]sample, ran [conns]time.Duration, m metricSet) (sent, ok, queries int) {
	var qps, eps, latSum float64
	batches := 0
	for conn, samples := range closed {
		okQ, okEdges := 0, 0
		for _, s := range samples {
			sent++
			if !s.ok {
				continue
			}
			ok++
			if s.req.update {
				okEdges += len(s.req.ops)
				batches++
			} else {
				okQ++
				latSum += ms(s.latency)
			}
		}
		qps += float64(okQ) / ran[conn].Seconds()
		eps += float64(okEdges) / ran[conn].Seconds()
		queries += okQ
	}
	m.put("query_qps", qps, queries)
	if queries > 0 {
		m.put("client.closed_mean_ms", latSum/float64(queries), queries)
	}
	if batches > 0 {
		m.put("client.update_eps", eps, batches)
	}
	return sent, ok, queries
}

// telemetryMetrics reports the server's own counters as deltas over the two
// measured phases.
func telemetryMetrics(w workload, before, after *scrape, sent int, m metricSet) {
	b, a := before.Stats, after.Stats
	v, n := meanMS(before, after, "ctc_query_queue_wait_seconds")
	m.put("admit.queue_wait_mean_ms", v, n)
	m.put("admit.shed_total", float64(a.ShedDeadline+a.ShedQueueFull-b.ShedDeadline-b.ShedQueueFull), sent)
	if lookups := a.CacheHits + a.CacheMisses - b.CacheHits - b.CacheMisses; lookups > 0 {
		m.put("admit.cache_hit_share", float64(a.CacheHits-b.CacheHits)/float64(lookups), int(lookups))
	}
	m.put("serve.publishes", float64(a.Publishes-b.Publishes), 1)
	v, n = meanMS(before, after, "ctc_publish_duration_seconds")
	m.put("serve.publish_mean_ms", v, n)
	m.put("serve.full_rebuilds", float64(a.FullRebuilds-b.FullRebuilds), 1)
	if w.WAL {
		m.put("wal.syncs", float64(a.WALSyncs-b.WALSyncs), 1)
		v, n = meanMS(before, after, "ctc_wal_fsync_duration_seconds")
		m.put("wal.fsync_mean_ms", v, n)
	}
	if acq := after.Metrics["ctc_workspace_acquires_total"] - before.Metrics["ctc_workspace_acquires_total"]; acq > 0 {
		fresh := after.Metrics["ctc_workspace_fresh_total"] - before.Metrics["ctc_workspace_fresh_total"]
		m.put("trussindex.workspace_fresh_share", fresh/acq, int(acq))
	}
}
