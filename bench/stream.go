package main

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"time"

	"repro/internal/gen"
	"repro/internal/graph"
)

// workload is one traffic mix against one server configuration. The table
// below is normative: names, graphs and rates are the same on every commit,
// so that two commits' numbers for a workload are comparable.
type workload struct {
	Name string
	Why  string // one line, copied into BENCHMARK.json
	Net  string // internal/gen analogue the child serves (-net)
	WAL  bool   // child runs with -wal <dir>, fsync on

	QueryRate   float64       // open phase: queries per second over the 2 connections
	ClosedShare float64       // share of --seconds spent in the closed phase
	QMin, QMax  int           // query size range
	GroundTruth bool          // sample queries inside ground-truth communities (else uniform vertices)
	Hot         int           // > 0: this many distinct requests, drawn Zipf(1.1): every measured request is a cache hit
	UpdateEvery time.Duration // > 0: open phase also posts one 10-edge flush batch at this period
	Setups      int           // cold starts timed per run; setup_s is their median

	LadderQueries int  // read-ladder inputs (first queries of the open stream)
	LadderBatches int  // write-ladder inputs (10-edge batches); 0 = no write ladder
	ShardProbe    bool // also time the same queries through a 2-shard router
}

const (
	openBatchEdges   = 10 // edges per open-phase /update batch
	closedBatchEdges = 64 // edges per closed-phase /update batch
	maxParked        = 512
	zipfS            = 1.1
	warmupQueries    = 400
	// closedHeadroom sizes the pre-generated closed-phase query lists: this
	// many times what one connection is expected to complete, so a faster
	// machine does not run out of distinct queries.
	closedHeadroom = 4
)

var workloads = []workload{
	{
		Name: "read_dense", Net: "facebook",
		Why:       "dense graph, distinct random pairs: expand+peel are ~90% of a search, seed ~8%; result cache never hits",
		QueryRate: 30, ClosedShare: 3.0 / 13, QMin: 2, QMax: 2, Setups: 5,
		LadderQueries: 100,
	},
	{
		Name: "read_seed", Net: "dblp",
		Why:       "sparse graph, distinct ground-truth queries of 2-4 vertices: the Steiner seed is ~55% of a search; read-only twin of mixed_wal",
		QueryRate: 40, ClosedShare: 1.0 / 3, QMin: 2, QMax: 4, GroundTruth: true, Setups: 5,
		LadderQueries: 100, ShardProbe: true,
	},
	{
		Name: "mixed_wal", Net: "dblp", WAL: true,
		Why:       "the read_seed stream plus 100 edge updates/s in fsynced flush batches: WAL, incremental truss, snapshot and index build run beside the reads",
		QueryRate: 40, ClosedShare: 1.0 / 3, QMin: 2, QMax: 4, GroundTruth: true, Setups: 5,
		UpdateEvery:   100 * time.Millisecond,
		LadderQueries: 100, LadderBatches: 100,
	},
	{
		Name: "coldstart_hotcache", Net: "orkut",
		Why:       "largest graph, 64 requests drawn Zipf at 1000/s, all cache hits: setup_s shows the cold build, query metrics show per-request fixed cost only",
		QueryRate: 1000, ClosedShare: 1.0 / 3, QMin: 2, QMax: 4, GroundTruth: true, Hot: 64, Setups: 3,
		LadderQueries: 48,
	},
}

// hotWarmShare is the share of --seconds a hot-cache workload spends running
// its open-phase traffic unmeasured, after the cache is filled. Sub-
// millisecond round trips on a virtual two-core box keep getting faster for
// several seconds after the load starts (the hypervisor's and the kernel's
// idle-wake-up heuristics adapt to it); measured from the first second, the
// median drifts by a fifth within a run and differs as much between runs.
const hotWarmShare = 0.3

// hotSetSeed fixes the hot set: which 64 requests are hot, and in which
// rank order, is part of the workload, as a production hot set is a
// property of the traffic. The seed of a run drives the Zipf draws only; a
// hot set that changed with it would make response size, and so per-request
// cost, a property of the seed.
const hotSetSeed = 0x407

// phases splits the measured seconds of a run into its phases.
func (w workload) phases(seconds float64) (hotWarm, open, closed time.Duration) {
	total := time.Duration(seconds * float64(time.Second))
	closed = time.Duration(seconds * w.ClosedShare * float64(time.Second))
	if w.Hot > 0 {
		hotWarm = time.Duration(seconds * hotWarmShare * float64(time.Second))
	}
	return hotWarm, total - closed - hotWarm, closed
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// request is one generated HTTP request. The server receives body and
// nothing else of the generator's state.
type request struct {
	update bool
	body   []byte
	q      []int         // query vertices; nil for an update
	ops    []edgeOp      // update: the batch, for the in-process ladder
	due    time.Duration // open phase: offset from the phase start at which it is due
}

// edgeOp is one edge insertion or deletion of an update batch.
type edgeOp struct {
	add  bool
	u, v int
}

// stream is everything one run sends, derived from the seed alone.
type stream struct {
	warm    []request // unmeasured closed-loop warm-up (for Hot: each distinct request once)
	hotWarm []request // Hot only: unmeasured open-phase traffic after the cache is filled
	open    []request // open phase, ascending due time
	ladder  []request // the traced run's inputs: the first distinct queries of the open phase
	// closed yields connection conn's next closed-phase request; false means
	// that connection's supply is exhausted. Each connection's sequence is
	// fixed by the seed, however fast the other one runs.
	closed func(conn int) (request, bool)
	upd    *updater // non-nil when the stream carries updates: the generator's own replay
}

// buildStream derives the request stream of w for seed. hotWarm, open and
// closed are the phase lengths.
func buildStream(w workload, seed uint64, g *graph.Graph, truth [][]int, hotWarm, open, closed time.Duration) (*stream, error) {
	s := &stream{}
	nOpen := int(open.Seconds() * w.QueryRate)

	if w.Hot > 0 {
		hot := newQuerySource(w, hotSetSeed, g, truth).take(w.Hot)
		if len(hot) < w.Hot {
			return nil, fmt.Errorf("%s: only %d distinct queries available, need %d", w.Name, len(hot), w.Hot)
		}
		s.warm, s.ladder = hot, hot
		cdf := zipfCDF(w.Hot, zipfS)
		rng := gen.NewRNG(seed ^ 0x21BF)
		scheduled := func(n int) []request {
			out := make([]request, n)
			for i := range out {
				out[i] = hot[zipfPick(cdf, rng)]
				out[i].due = time.Duration(float64(i) / w.QueryRate * float64(time.Second))
			}
			return out
		}
		s.hotWarm = scheduled(int(hotWarm.Seconds() * w.QueryRate))
		s.open = scheduled(nOpen)
		rngs := [2]*gen.RNG{gen.NewRNG(seed ^ 0xC105ED0), gen.NewRNG(seed ^ 0xC105ED1)}
		s.closed = func(conn int) (request, bool) { return hot[zipfPick(cdf, rngs[conn])], true }
		return s, nil
	}

	qs := newQuerySource(w, seed, g, truth)
	s.warm = qs.take(warmupQueries)
	// The ladder wants its inputs even when the open phase is cut short.
	queries := qs.take(max(nOpen, w.LadderQueries+ladderWarmup))
	s.ladder, queries = queries, queries[:min(nOpen, len(queries))]
	for i := range queries {
		queries[i].due = time.Duration(float64(i) / w.QueryRate * float64(time.Second))
	}
	perConn := int(closed.Seconds()*w.QueryRate*closedHeadroom) + 1
	lists := [2][]request{qs.take(perConn), nil}
	if w.UpdateEvery == 0 {
		lists[1] = qs.take(perConn)
	}
	if len(queries) < nOpen || len(lists[0]) < perConn {
		return nil, fmt.Errorf("%s: ran out of distinct connected queries", w.Name)
	}
	next := [2]int{}
	takeQuery := func(conn int) (request, bool) {
		if next[conn] >= len(lists[conn]) {
			return request{}, false
		}
		next[conn]++
		return lists[conn][next[conn]-1], true
	}

	if w.UpdateEvery == 0 {
		s.open, s.closed = queries, takeQuery
		return s, nil
	}

	// Writes beside reads: the same query stream, plus a flush batch every
	// UpdateEvery on the same connections; in the closed phase connection 0
	// queries and connection 1 posts 64-edge flush batches back to back.
	s.upd = newUpdater(seed, g)
	var updates []request
	for due := w.UpdateEvery; due < open; due += w.UpdateEvery {
		r := s.upd.batch(openBatchEdges)
		r.due = due
		updates = append(updates, r)
	}
	s.open = append(queries, updates...)
	sort.SliceStable(s.open, func(i, j int) bool { return s.open[i].due < s.open[j].due })
	s.closed = func(conn int) (request, bool) {
		if conn == 0 {
			return takeQuery(0)
		}
		return s.upd.batch(closedBatchEdges), true
	}
	return s, nil
}

// querySource yields distinct LCTC queries whose vertices all lie in the
// graph's largest connected component, so every one has an answer (a
// connected tree is a 2-truss) and none repeats (the result cache is keyed
// on the query set, so a repeat would be a hit).
type querySource struct {
	w     workload
	g     *graph.Graph
	truth [][]int
	rng   *gen.RNG
	comp  []int32 // component label per vertex
	giant int32
	seen  map[string]bool
}

func newQuerySource(w workload, seed uint64, g *graph.Graph, truth [][]int) *querySource {
	comp, giant := components(g)
	return &querySource{w: w, g: g, truth: truth, rng: gen.NewRNG(seed), comp: comp, giant: giant, seen: map[string]bool{}}
}

func (qs *querySource) take(n int) []request {
	out := make([]request, 0, n)
	// A bounded number of rejected draws guards against a graph too small to
	// hold n distinct queries; buildStream reports the shortfall.
	for rejected := 0; len(out) < n && rejected < 64*n+1024; {
		var batch [][]int
		if qs.w.GroundTruth {
			for _, gq := range gen.QueriesFromGroundTruth(qs.rng, qs.truth, n-len(out), qs.w.QMin, qs.w.QMax) {
				batch = append(batch, gq.Q)
			}
			if len(batch) == 0 {
				return out
			}
		} else {
			batch = append(batch, gen.RandomQuery(qs.g, qs.rng, qs.w.QMin))
		}
		for _, q := range batch {
			if !qs.accept(q) {
				rejected++
				continue
			}
			out = append(out, request{q: q, body: queryBody(q)})
		}
	}
	return out
}

func (qs *querySource) accept(q []int) bool {
	for _, v := range q {
		if qs.comp[v] != qs.giant {
			return false
		}
	}
	key := append([]int(nil), q...)
	sort.Ints(key)
	k := fmt.Sprint(key)
	if qs.seen[k] {
		return false
	}
	qs.seen[k] = true
	return true
}

// components labels every vertex with its connected component and returns
// the label of the largest one.
func components(g *graph.Graph) (comp []int32, giant int32) {
	comp = make([]int32, g.N())
	for i := range comp {
		comp[i] = -1
	}
	var sizes []int
	var stack []int32
	for s := 0; s < g.N(); s++ {
		if comp[s] >= 0 {
			continue
		}
		label := int32(len(sizes))
		comp[s] = label
		stack = append(stack[:0], int32(s))
		size := 0
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			size++
			for _, u := range g.Neighbors(int(v)) {
				if comp[u] < 0 {
					comp[u] = label
					stack = append(stack, u)
				}
			}
		}
		sizes = append(sizes, size)
	}
	for l, sz := range sizes {
		if sz > sizes[giant] {
			giant = int32(l)
		}
	}
	return comp, giant
}

func queryBody(q []int) []byte {
	b := []byte(`{"q":[`)
	for i, v := range q {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(v), 10)
	}
	return append(b, "]}"...)
}

// updater generates the edge-update stream the way ctcbench -mixed does —
// delete a random live base edge, or re-insert the oldest parked one — and
// is at the same time the generator's own replay of it: m is the edge count
// the server must report once every generated batch is acknowledged.
type updater struct {
	rng    *gen.RNG
	pool   []graph.EdgeKey // deletable edges
	gone   map[int]bool    // pool indices currently deleted
	parked []int           // deleted pool indices, oldest first
	m      int
}

// newUpdater restricts deletions to edges whose endpoints both keep degree
// >= 4 in the base graph: with at most maxParked edges missing, no query
// vertex can be cut off, so no query fails for lack of a community.
func newUpdater(seed uint64, g *graph.Graph) *updater {
	u := &updater{rng: gen.NewRNG(seed ^ 0xDEAD), gone: map[int]bool{}, m: g.M()}
	for _, k := range g.EdgeKeys() {
		a, b := k.Endpoints()
		if g.Degree(a) >= 4 && g.Degree(b) >= 4 {
			u.pool = append(u.pool, k)
		}
	}
	return u
}

func (u *updater) batch(n int) request {
	b := []byte(`{"edges":[`)
	ops := make([]edgeOp, 0, n)
	for i := 0; i < n; i++ {
		if i > 0 {
			b = append(b, ',')
		}
		var op string
		var idx int
		if len(u.parked) > maxParked || (len(u.parked) > 0 && u.rng.Intn(2) == 0) {
			op, idx = "add", u.parked[0]
			u.parked = u.parked[1:]
			delete(u.gone, idx)
			u.m++
		} else {
			idx = u.rng.Intn(len(u.pool))
			for u.gone[idx] {
				idx = u.rng.Intn(len(u.pool))
			}
			op = "remove"
			u.gone[idx] = true
			u.parked = append(u.parked, idx)
			u.m--
		}
		a, c := u.pool[idx].Endpoints()
		b = append(b, `{"op":"`...)
		b = append(b, op...)
		b = append(b, `","u":`...)
		b = strconv.AppendInt(b, int64(a), 10)
		b = append(b, `,"v":`...)
		b = strconv.AppendInt(b, int64(c), 10)
		b = append(b, '}')
		ops = append(ops, edgeOp{add: op == "add", u: a, v: c})
	}
	b = append(b, `],"flush":true}`...)
	return request{update: true, body: b, ops: ops}
}

func zipfCDF(n int, s float64) []float64 {
	cdf := make([]float64, n)
	var sum float64
	for r := 1; r <= n; r++ {
		sum += 1 / math.Pow(float64(r), s)
		cdf[r-1] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return cdf
}

func zipfPick(cdf []float64, rng *gen.RNG) int {
	i := sort.SearchFloat64s(cdf, rng.Float64())
	if i >= len(cdf) {
		i = len(cdf) - 1
	}
	return i
}
