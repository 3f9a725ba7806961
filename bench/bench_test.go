package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/gen"
)

// A server that stalls must be charged for the requests that queue behind
// the stall: latency runs from the due time, not from the send. The
// generator's own lateness stays small all the while, because the requests
// went out the moment a connection was free.
func TestOpenLoopChargesStallToLaterRequests(t *testing.T) {
	reqs := make([]request, 8)
	for i := range reqs {
		reqs[i].due = time.Duration(i) * 10 * time.Millisecond
	}
	const stall = 150 * time.Millisecond
	var calls atomic.Int32
	do := func(_ context.Context, _ int, seq int, _ *request) bool {
		calls.Add(1)
		if seq < conns { // the first request on each connection stalls
			time.Sleep(stall)
		}
		return true
	}
	out := runOpen(context.Background(), reqs, do)
	if len(out) != len(reqs) || int(calls.Load()) != len(reqs) {
		t.Fatalf("sent %d of %d requests (%d calls)", len(out), len(reqs), calls.Load())
	}
	// Request 2 was due at 20 ms but no connection was free before ~150 ms.
	if got, atLeast := out[2].latency, stall-reqs[2].due-10*time.Millisecond; got < atLeast {
		t.Errorf("request behind the stall: latency %v, want >= %v (timed from its due time)", got, atLeast)
	}
	for i, s := range out {
		if s.late < 0 || s.late > 50*time.Millisecond {
			t.Errorf("request %d: generator lateness %v, want small: the wait for a free connection is the server's fault", i, s.late)
		}
	}
	// The last request queued behind the backlog too, though the server was
	// fast again by then.
	if got := out[7].latency; got < 50*time.Millisecond {
		t.Errorf("request 7: latency %v, want the backlog's delay in it", got)
	}
}

// A generator that cannot keep its own schedule must say so.
func TestOpenLoopReportsGeneratorLateness(t *testing.T) {
	reqs := make([]request, 4)
	for i := range reqs {
		reqs[i].due = time.Duration(i) * 20 * time.Millisecond
	}
	out := runOpen(context.Background(), reqs, func(context.Context, int, int, *request) bool { return true })
	for i, s := range out {
		if s.late < 0 || s.late > 5*time.Millisecond {
			t.Errorf("request %d on an idle server: lateness %v, want under 5 ms", i, s.late)
		}
		if s.latency > 10*time.Millisecond {
			t.Errorf("request %d on an idle server: latency %v", i, s.latency)
		}
	}
}

func TestHighestSupportedPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{1, 0.5}, {99, 0.5}, {100, 0.90}, {999, 0.90}, {1000, 0.99}, {9999, 0.99}, {10000, 0.999}} {
		if got := highestSupported(c.n); got != c.want {
			t.Errorf("highestSupported(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestPercentileCountsFailuresAsInfinite(t *testing.T) {
	lat := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, math.Inf(1)}
	if got := percentile(lat, 0.5); got != 5 {
		t.Errorf("p50 = %v, want 5", got)
	}
	if got := percentile(lat, 0.9); got != 9 {
		t.Errorf("p90 = %v, want 9", got)
	}
	if got := percentile(lat, 0.99); !math.IsInf(got, 1) {
		t.Errorf("p99 = %v, want +Inf: one request in ten failed", got)
	}
}

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
}

// fingerprint is the byte stream a run would send: warm-up, open phase with
// its schedule, and the first requests of each closed-phase connection.
func fingerprint(t *testing.T, w workload, seed uint64) []byte {
	t.Helper()
	nw, err := gen.NetworkByName(w.Net)
	if err != nil {
		t.Fatal(err)
	}
	st, err := buildStream(w, seed, nw.Graph(), nw.GroundTruth(), time.Second, 2*time.Second, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	for _, r := range st.warm {
		b.Write(r.body)
	}
	for _, r := range st.open {
		fmt.Fprintf(&b, "%d:%s\n", r.due, r.body)
	}
	for conn := 0; conn < conns; conn++ {
		for i := 0; i < 40; i++ {
			r, ok := st.closed(conn)
			if !ok {
				t.Fatalf("%s: connection %d ran out after %d closed-phase requests", w.Name, conn, i)
			}
			b.Write(r.body)
		}
	}
	return b.Bytes()
}

func TestSameSeedSameStream(t *testing.T) {
	for _, w := range workloads {
		if w.Net == "orkut" && testing.Short() {
			continue
		}
		a, b, c := fingerprint(t, w, 7), fingerprint(t, w, 7), fingerprint(t, w, 8)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: the same seed gave two different request streams", w.Name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same request stream", w.Name)
		}
	}
}

// The read workloads promise that no query repeats (a repeat would be a
// cache hit), and the updater's edge count is the oracle for the server's.
func TestStreamInvariants(t *testing.T) {
	w, err := workloadByName("mixed_wal")
	if err != nil {
		t.Fatal(err)
	}
	nw, _ := gen.NetworkByName(w.Net)
	g := nw.Graph()
	st, err := buildStream(w, 3, g, nw.GroundTruth(), time.Second, 2*time.Second, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	live := map[[2]int]bool{}
	for _, k := range g.EdgeKeys() {
		u, v := k.Endpoints()
		live[[2]int{u, v}] = true
	}
	apply := func(r request) {
		for _, op := range r.ops {
			e := [2]int{min(op.u, op.v), max(op.u, op.v)}
			if live[e] == op.add {
				t.Fatalf("update %+v is a no-op: the replay count would drift from the server's", op)
			}
			live[e] = op.add
		}
	}
	queries, updates := 0, 0
	for _, r := range append(append([]request(nil), st.warm...), st.open...) {
		if r.update {
			updates++
			apply(r)
			continue
		}
		queries++
		key := fmt.Sprint(sortedInts(r.q))
		if seen[key] {
			t.Fatalf("query %v repeats", r.q)
		}
		seen[key] = true
	}
	if want := int(2 * w.QueryRate); queries != warmupQueries+want || updates != 19 {
		t.Errorf("2 s open phase: %d queries, %d update batches; want %d and 19", queries, updates, warmupQueries+want)
	}
	for i := 0; i < 30; i++ {
		r, _ := st.closed(1)
		apply(r)
	}
	n := 0
	for _, alive := range live {
		if alive {
			n++
		}
	}
	if n != st.upd.m {
		t.Errorf("replaying the generated updates leaves %d edges, the updater says %d", n, st.upd.m)
	}
}

// The self times of a ladder, leaves included, add up to its top rung, and
// every metric a ladder writes is one BENCHMARK.json declares.
func TestLadderRungsSumToTop(t *testing.T) {
	declared := map[string]bool{}
	for _, d := range perLayer {
		declared[d.Name] = true
	}
	for _, ladder := range []rung{readLadder, writeLadder} {
		tr := &tracer{t0: time.Now()}
		var fill func(r rung, depth int) time.Duration
		fill = func(r rung, depth int) time.Duration {
			d := time.Duration(depth+1) * 137 * time.Microsecond // the rung's own share
			for _, c := range r.Children {
				d += fill(c, depth+1)
			}
			for req := 0; req < 3; req++ {
				tr.add(r.Span, "", req, tr.t0, d+time.Duration(req)*time.Microsecond)
			}
			return d
		}
		fill(ladder, 0)
		m := metricSet{}
		ladder.report(tr, m)
		top := m[ladder.Span+"_ms"].Value
		if sum := ladder.selfSum(m); math.Abs(sum-top) > 1e-9 {
			t.Errorf("%s: self times sum to %v ms, the top rung is %v ms", ladder.Span, sum, top)
		}
		if self := m[ladder.Self].Value; math.Abs(self-0.137) > 1e-9 {
			t.Errorf("%s: self time %v ms, want 0.137", ladder.Self, self)
		}
		for name := range m {
			if !declared[name] {
				t.Errorf("ladder %s reports %q, which perLayer does not declare", ladder.Span, name)
			}
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := metricDef{Name: "query_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "query_qps", Unit: "1/s", Better: "higher", Bound: 0.10}
	tight := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{100, 130, 80, 100, 125, 75, 100, 120, 85, 100}
	for _, c := range []struct {
		name     string
		d        metricDef
		old, new []float64
		want     string
	}{
		{"unchanged", lower, tight, tight, verdictSame},
		{"5% slower is inside the bound", lower, tight, scale(tight, 1.05), verdictSame},
		{"15% slower", lower, tight, scale(tight, 1.15), verdictWorse},
		{"15% faster", lower, tight, scale(tight, 0.85), verdictBetter},
		{"1% faster is inside the parent's own spread", lower, tight, scale(tight, 0.99), verdictSame},
		{"15% more throughput", higher, tight, scale(tight, 1.15), verdictBetter},
		{"15% less throughput", higher, tight, scale(tight, 0.85), verdictWorse},
		{"parent too noisy to tell", lower, noisy, scale(noisy, 1.15), verdictUnresolved},
	} {
		if got := judge(c.d, c.old, c.new); got.Verdict != c.want {
			t.Errorf("%s: verdict %s (change %+.3f, parent spread %.3f), want %s", c.name, got.Verdict, got.Change, got.OldIQRs, c.want)
		}
	}
	count := metricDef{Name: "core.search_allocs", Unit: "count", Better: "lower"}
	if got := judgeCount(count, 113, 113).Verdict; got != verdictSame {
		t.Errorf("equal counts: %s", got)
	}
	if got := judgeCount(count, 113, 114).Verdict; got != verdictWorse {
		t.Errorf("one more allocation: %s, want worse: counts must repeat exactly", got)
	}
	if got := judgeCount(count, 113, 90).Verdict; got != verdictBetter {
		t.Errorf("fewer allocations: %s", got)
	}
}

func TestCompareRefusesDifferentEnvironments(t *testing.T) {
	a := environment{Revision: "aaa", CPUModel: "x", NumCPU: 2, ChildProcs: 2, GeneratorProcs: 2, GoVersion: "go1.24.0", Kernel: "k", Seed: 1, Runs: 10, Seconds: 24, ScratchFSType: "ext4"}
	b := a
	b.Revision = "bbb"
	if field := a.comparableWith(b); field != "" {
		t.Errorf("two revisions on one machine must be comparable, differ in %q", field)
	}
	b.NumCPU = 4
	if field := a.comparableWith(b); field != "nproc" {
		t.Errorf("comparableWith = %q, want nproc", field)
	}
	dir := t.TempDir()
	write := func(name string, env environment) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(fmt.Sprintf(`{"env":{"cpu_model":%q,"nproc":%d},"runs":[]}`, env.CPUModel, env.NumCPU)), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	var out bytes.Buffer
	if code := compareFiles(&out, write("old.json", a), write("new.json", b)); code == 0 {
		t.Errorf("compare of results from 2 and 4 CPUs exited 0:\n%s", out.String())
	}
}

// BENCHMARK.json is generated from the tables in this package
// (bash bench/run.sh -benchmark-json > BENCHMARK.json); it must not drift.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if want := benchmarkJSON(); !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json differs from the workload and metric tables; regenerate it with\n  bash bench/run.sh -benchmark-json > BENCHMARK.json\nwant:\n%s", want)
	}
}

// A one-second miniature of a read workload and of the write workload
// against a real child ctcserve: every phase runs, nothing fails, every
// end-to-end metric is measured, and (mixed_wal) the server's edge count
// matches the generator's replay before and after kill -9.
func TestMiniatureAgainstRealServer(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	bin, err := buildServer(ctx, root, dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"read_dense", "mixed_wal"} {
		w, err := workloadByName(name)
		if err != nil {
			t.Fatal(err)
		}
		w.LadderQueries, w.LadderBatches = 5, 5
		cfg := runConfig{serverBin: bin, buildDir: dir, seed: 1, seconds: 1, warmup: 100 * time.Millisecond, trace: true, setups: 1}
		res, err := runWorkload(ctx, cfg, w)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Failed != 0 || res.Attempted < 20 {
			t.Errorf("%s: attempted %d, failed %d (%s)", name, res.Attempted, res.Failed, strings.Join(res.Invalid, "; "))
		}
		for _, d := range endToEnd {
			if v := res.Metrics[d.Name]; !(v.Value > 0) || v.N == 0 {
				t.Errorf("%s: %s = %v (n=%d), want a measured positive value", name, d.Name, v.Value, v.N)
			}
		}
		if v := res.Metrics["client.checked"]; v.Value < 1 {
			t.Errorf("%s: no response was checked", name)
		}
		if sum, top := readLadder.selfSum(res.Metrics), res.Metrics["ctcserve.query_ms"].Value; top <= 0 || math.Abs(sum-top) > 1e-9 {
			t.Errorf("%s: read ladder self times sum to %v, ctcserve.query_ms is %v", name, sum, top)
		}
		if _, err := os.Stat(filepath.Join(dir, "trace-"+name+".jsonl")); err != nil {
			t.Errorf("%s: no span file: %v", name, err)
		}
		if name == "mixed_wal" {
			for _, metric := range []string{"wal.recovery_ms", "client.update_visible_p50_ms", "client.update_eps", "serve.apply_flush_ms", "wal.append_sync_ms"} {
				if v := res.Metrics[metric]; !(v.Value > 0) {
					t.Errorf("mixed_wal: %s = %v, want > 0", metric, v.Value)
				}
			}
			if sum, top := writeLadder.selfSum(res.Metrics), res.Metrics["ctcserve.update_flush_ms"].Value; math.Abs(sum-top) > 1e-9 {
				t.Errorf("write ladder self times sum to %v, ctcserve.update_flush_ms is %v", sum, top)
			}
		}
	}
}

// selfSum adds up the self times of r as reported in m: what the ladder
// claims the top rung is made of.
func (r rung) selfSum(m metricSet) float64 {
	if len(r.Children) == 0 {
		return m[r.Span+"_ms"].Value
	}
	sum := m[r.Self].Value
	for _, c := range r.Children {
		sum += c.selfSum(m)
	}
	return sum
}
