package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/admit"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/serve"
	"repro/internal/telemetry"
	"repro/internal/trussindex"
	"repro/internal/wal"
)

// telemetryManager builds a durable manager (WAL in a temp dir) with the
// full telemetry plane wired: registry, tracer, discard logger. It mirrors
// what run() assembles, minus the listeners.
func telemetryManager(t *testing.T, slow time.Duration) (*serve.Manager, *telemetry.Registry, *telemetry.Tracer) {
	t.Helper()
	g, _ := gen.CommunityGraph(gen.CommunityParams{
		N: 200, NumCommunities: 10, MinSize: 8, MaxSize: 24,
		Overlap: 0.3, PIntra: 0.5, BackgroundEdges: 150, Seed: 0x5E17E,
	})
	reg := telemetry.NewRegistry()
	telemetry.RegisterBuildInfo(reg)
	tracer := telemetry.NewTracer(reg, telemetry.TracerOptions{SlowThreshold: slow, AlgoLabels: core.AlgoNames()})
	opts := serve.Options{
		PublishDirty:    4,
		PublishInterval: 10 * time.Millisecond,
		Metrics:         reg,
		Tracer:          tracer,
		Logger:          discardLogger(),
	}
	mgr, _, err := serve.OpenDurable(t.TempDir(),
		func() (*trussindex.Index, error) { return trussindex.Build(g), nil },
		wal.Options{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mgr.Close)
	return mgr, reg, tracer
}

// scrape fetches /metrics and parses it, failing the test on any
// exposition-format violation the parser can detect.
func scrape(t *testing.T, c *http.Client, url string) map[string]*telemetry.ParsedFamily {
	t.Helper()
	resp, err := c.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("Content-Type = %q, want text exposition 0.0.4", ct)
	}
	fams, err := telemetry.ParseText(resp.Body)
	if err != nil {
		t.Fatalf("parsing /metrics: %v", err)
	}
	return fams
}

// checkHistogramFamily validates the exposition invariants of one
// histogram family: per label-set, le values strictly ascend and end at
// +Inf, bucket counts are cumulative, the +Inf bucket equals _count, and a
// _sum sample exists. (A copy of the telemetry package's internal test
// helper — it is unexported there on purpose.)
func checkHistogramFamily(t *testing.T, fam *telemetry.ParsedFamily, name string) {
	t.Helper()
	type series struct {
		les    []float64
		counts []float64
		count  float64
		sum    bool
	}
	groups := map[string]*series{}
	keyOf := func(labels map[string]string) string {
		parts := make([]string, 0, len(labels))
		for k, v := range labels {
			if k == "le" {
				continue
			}
			parts = append(parts, k+"="+v)
		}
		sort.Strings(parts)
		return strings.Join(parts, ",")
	}
	get := func(labels map[string]string) *series {
		k := keyOf(labels)
		if groups[k] == nil {
			groups[k] = &series{}
		}
		return groups[k]
	}
	for _, s := range fam.Samples {
		switch s.Name {
		case name + "_bucket":
			le, err := strconv.ParseFloat(s.Labels["le"], 64)
			if err != nil {
				t.Fatalf("%s: bad le %q", name, s.Labels["le"])
			}
			g := get(s.Labels)
			g.les = append(g.les, le)
			g.counts = append(g.counts, s.Value)
		case name + "_sum":
			get(s.Labels).sum = true
		case name + "_count":
			get(s.Labels).count = s.Value
		}
	}
	if len(groups) == 0 {
		t.Fatalf("%s: no histogram series found", name)
	}
	for k, g := range groups {
		if len(g.les) == 0 {
			t.Fatalf("%s{%s}: no buckets", name, k)
		}
		for i := 1; i < len(g.les); i++ {
			if g.les[i] <= g.les[i-1] {
				t.Errorf("%s{%s}: le not ascending at %d: %v", name, k, i, g.les)
			}
			if g.counts[i] < g.counts[i-1] {
				t.Errorf("%s{%s}: bucket counts not cumulative at %d: %v", name, k, i, g.counts)
			}
		}
		last := len(g.les) - 1
		if !math.IsInf(g.les[last], +1) {
			t.Errorf("%s{%s}: last bucket le=%v, want +Inf", name, k, g.les[last])
		}
		if g.counts[last] != g.count {
			t.Errorf("%s{%s}: +Inf bucket %v != _count %v", name, k, g.counts[last], g.count)
		}
		if !g.sum {
			t.Errorf("%s{%s}: missing _sum", name, k)
		}
	}
}

// TestMetricsExpositionEndToEnd drives the full stack over real HTTP —
// queries across all four algorithms, a cache hit, updates through the WAL,
// a flush — then scrapes /metrics twice and validates the exposition:
// every family carries HELP and TYPE, every required family from the issue
// is present, counters are monotone across scrapes, and histograms are
// internally consistent.
func TestMetricsExpositionEndToEnd(t *testing.T) {
	mgr, reg, tracer := telemetryManager(t, time.Hour)
	ts := httptest.NewServer(newServerWith(mgr, reg, tracer))
	defer ts.Close()
	c := ts.Client()

	for _, algo := range []string{"lctc", "basic", "bd", "truss"} {
		var out queryResponse
		code := postJSON(t, c, ts.URL+"/query", queryRequest{Q: []int{5}, Algo: algo, Tenant: "scraper"}, &out)
		if code != http.StatusOK && code != http.StatusNotFound {
			t.Fatalf("query algo=%s: status %d", algo, code)
		}
	}
	// Repeat an identical query: the second run should land in the epoch
	// result cache and count as a hit.
	for i := 0; i < 2; i++ {
		postJSON(t, c, ts.URL+"/query", queryRequest{Q: []int{5}, Algo: "lctc", Tenant: "scraper"}, nil)
	}
	// Updates through the WAL (fsync on the commit path), then a flush so a
	// publish definitely happened before the first scrape.
	if code := postJSON(t, c, ts.URL+"/update", map[string]any{
		"edges": []map[string]any{
			{"op": "add", "u": 0, "v": 199},
			{"op": "add", "u": 1, "v": 198},
			{"op": "remove", "u": 0, "v": 199},
			{"op": "add", "u": 2, "v": 197},
		},
	}, nil); code != http.StatusOK {
		t.Fatalf("update: status %d", code)
	}
	if err := mgr.Flush(); err != nil {
		t.Fatal(err)
	}

	first := scrape(t, c, ts.URL)

	// Required coverage per the issue: query latency per algo, admission,
	// cache hit ratio, WAL fsync latency, epoch age, workspace pool.
	required := []string{
		"ctc_query_duration_seconds",
		"ctc_query_phase_duration_seconds",
		"ctc_queries_total",
		"ctc_admission_admitted_total",
		"ctc_admission_queue_depth",
		"ctc_cache_hits_total",
		"ctc_cache_misses_total",
		"ctc_cache_hit_ratio",
		"ctc_wal_fsync_duration_seconds",
		"ctc_wal_appends_total",
		"ctc_epoch",
		"ctc_epoch_age_seconds",
		"ctc_publishes_total",
		"ctc_publish_duration_seconds",
		"ctc_update_queue_depth",
		"ctc_workspace_acquires_total",
		"ctc_build_info",
	}
	for _, name := range required {
		fam := first[name]
		if fam == nil {
			t.Errorf("required family %s missing from /metrics", name)
			continue
		}
		if fam.Help == "" {
			t.Errorf("%s: missing # HELP", name)
		}
		if fam.Type == "" {
			t.Errorf("%s: missing # TYPE", name)
		}
	}
	if t.Failed() {
		t.FailNow()
	}

	// Spot-check values: queries ran and were admitted, the repeat query
	// hit the cache, the WAL fsynced at least once, a publish happened.
	sumFamily := func(fams map[string]*telemetry.ParsedFamily, name, suffix string) float64 {
		total := 0.0
		for _, s := range fams[name].Samples {
			if s.Name == name+suffix {
				total += s.Value
			}
		}
		return total
	}
	if v := sumFamily(first, "ctc_query_duration_seconds", "_count"); v < 4 {
		t.Errorf("ctc_query_duration_seconds observations = %v, want >= 4", v)
	}
	if v := sumFamily(first, "ctc_admission_admitted_total", ""); v < 4 {
		t.Errorf("ctc_admission_admitted_total = %v, want >= 4", v)
	}
	if v := sumFamily(first, "ctc_cache_hits_total", ""); v < 1 {
		t.Errorf("ctc_cache_hits_total = %v, want >= 1", v)
	}
	if v := sumFamily(first, "ctc_wal_fsync_duration_seconds", "_count"); v < 1 {
		t.Errorf("ctc_wal_fsync_duration_seconds observations = %v, want >= 1", v)
	}
	if v := sumFamily(first, "ctc_publishes_total", ""); v < 1 {
		t.Errorf("ctc_publishes_total = %v, want >= 1", v)
	}

	// Per-algo labels on the query latency histogram: a _count series for
	// every algorithm of the registry, pre-registered at tracer construction.
	algosSeen := map[string]bool{}
	for _, s := range first["ctc_query_duration_seconds"].Samples {
		if a := s.Labels["algo"]; a != "" && s.Name == "ctc_query_duration_seconds_count" {
			algosSeen[a] = true
		}
	}
	for _, want := range core.AlgoNames() {
		if !algosSeen[want] {
			t.Errorf("ctc_query_duration_seconds_count missing algo=%q series (saw %v)", want, algosSeen)
		}
	}

	// Histogram internal consistency on every histogram family exposed.
	for name, fam := range first {
		if fam.Type == "histogram" {
			checkHistogramFamily(t, fam, name)
		}
	}

	// More traffic, then a second scrape: counters must be monotone.
	for i := 0; i < 3; i++ {
		postJSON(t, c, ts.URL+"/query", queryRequest{Q: []int{7}, Algo: "basic"}, nil)
	}
	second := scrape(t, c, ts.URL)
	for name, f1 := range first {
		if f1.Type != "counter" {
			continue
		}
		f2 := second[name]
		if f2 == nil {
			t.Errorf("counter family %s disappeared on second scrape", name)
			continue
		}
		v1 := map[string]float64{}
		for _, s := range f1.Samples {
			v1[labelKey(s)] = s.Value
		}
		for _, s := range f2.Samples {
			if prev, ok := v1[labelKey(s)]; ok && s.Value < prev {
				t.Errorf("counter %s%s went backwards: %v -> %v", name, labelKey(s), prev, s.Value)
			}
		}
	}
}

func labelKey(s telemetry.ParsedSample) string {
	parts := make([]string, 0, len(s.Labels))
	for k, v := range s.Labels {
		parts = append(parts, k+"="+v)
	}
	sort.Strings(parts)
	return "{" + strings.Join(parts, ",") + "}"
}

// TestMetricsConcurrentScrape runs scrapers against live queries and
// updates (so publishes race the scrapes); under -race this is the data
// soundness check for the whole telemetry plane.
func TestMetricsConcurrentScrape(t *testing.T) {
	mgr, reg, tracer := telemetryManager(t, time.Hour)
	ts := httptest.NewServer(newServerWith(mgr, reg, tracer))
	defer ts.Close()
	c := ts.Client()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := c.Get(ts.URL + "/metrics")
				if err != nil {
					return
				}
				if _, err := telemetry.ParseText(resp.Body); err != nil {
					t.Errorf("scrape during load: %v", err)
				}
				resp.Body.Close()
			}
		}()
	}
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				body, _ := json.Marshal(queryRequest{Q: []int{(seed*31 + n) % 200}, Algo: "lctc"})
				resp, err := c.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
				if err != nil {
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}(i)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for n := 0; ; n++ {
			select {
			case <-stop:
				return
			default:
			}
			u, v := n%100, 100+n%99
			body := fmt.Sprintf(`{"op":"add","u":%d,"v":%d}`, u, v)
			resp, err := c.Post(ts.URL+"/update", "application/json", strings.NewReader(body))
			if err != nil {
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()

	// Final scrape must still be well-formed.
	scrape(t, c, ts.URL)
}

// TestSlowQueryLogEndToEnd is the issue's acceptance check: a deliberately
// slow query (the clique-chain fixture peels one vertex per round) must
// land in /debug/slowlog with its full phase breakdown.
func TestSlowQueryLogEndToEnd(t *testing.T) {
	g, q := slowChainGraph()
	reg := telemetry.NewRegistry()
	tracer := telemetry.NewTracer(reg, telemetry.TracerOptions{SlowThreshold: time.Millisecond})
	mgr := serve.NewManager(g, serve.Options{
		Admission: admit.Config{CacheEntries: -1},
		Metrics:   reg,
		Tracer:    tracer,
		Logger:    discardLogger(),
	})
	t.Cleanup(mgr.Close)
	ts := httptest.NewServer(newServerWith(mgr, reg, tracer))
	defer ts.Close()
	c := ts.Client()

	var out queryResponse
	if code := postJSON(t, c, ts.URL+"/query", queryRequest{Q: q, Algo: "basic", K: 2, Tenant: "slowpoke"}, &out); code != http.StatusOK {
		t.Fatalf("slow query: status %d", code)
	}

	resp, err := c.Get(ts.URL + "/debug/slowlog")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var log struct {
		ThresholdMS float64 `json:"threshold_ms"`
		TotalSlow   int64   `json:"total_slow"`
		Entries     []struct {
			Time        string `json:"time"`
			Algo        string `json:"algo"`
			Tenant      string `json:"tenant"`
			Outcome     string `json:"outcome"`
			SeedUS      int64  `json:"seed_us"`
			ExpandUS    int64  `json:"expand_us"`
			PeelUS      int64  `json:"peel_us"`
			TotalUS     int64  `json:"total_us"`
			PeelRounds  int    `json:"peel_rounds"`
			EdgesPeeled int    `json:"edges_peeled"`
		} `json:"entries"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&log); err != nil {
		t.Fatal(err)
	}
	if log.ThresholdMS != 1 {
		t.Errorf("threshold_ms = %v, want 1", log.ThresholdMS)
	}
	if log.TotalSlow < 1 || len(log.Entries) < 1 {
		t.Fatalf("slowlog empty: total_slow=%d entries=%d", log.TotalSlow, len(log.Entries))
	}
	e := log.Entries[0]
	if e.Algo != "Basic" {
		t.Errorf("entry algo = %q, want Basic", e.Algo)
	}
	if e.Tenant != "slowpoke" {
		t.Errorf("entry tenant = %q, want slowpoke", e.Tenant)
	}
	if e.Outcome != "ok" {
		t.Errorf("entry outcome = %q, want ok", e.Outcome)
	}
	if e.PeelUS <= 0 || e.PeelRounds <= 0 || e.EdgesPeeled <= 0 {
		t.Errorf("phase breakdown missing: peel_us=%d rounds=%d edges=%d", e.PeelUS, e.PeelRounds, e.EdgesPeeled)
	}
	if e.TotalUS < e.SeedUS+e.ExpandUS+e.PeelUS {
		t.Errorf("total_us %d < seed+expand+peel %d", e.TotalUS, e.SeedUS+e.ExpandUS+e.PeelUS)
	}
	if _, err := time.Parse(time.RFC3339Nano, e.Time); err != nil {
		t.Errorf("entry time %q not RFC3339: %v", e.Time, err)
	}
	// The slow query also ticks the counter family.
	fams := scrape(t, c, ts.URL)
	slowTotal := 0.0
	for _, s := range fams["ctc_slow_queries_total"].Samples {
		slowTotal += s.Value
	}
	if slowTotal < 1 {
		t.Errorf("ctc_slow_queries_total = %v, want >= 1", slowTotal)
	}
}

// TestBuildIdentityOnWire pins the PR 8 additions to /stats and /healthz:
// uptime, Go toolchain version, and the build-info block, so a scrape of a
// running instance identifies the exact binary.
func TestBuildIdentityOnWire(t *testing.T) {
	mgr, reg, tracer := telemetryManager(t, time.Hour)
	ts := httptest.NewServer(newServerWith(mgr, reg, tracer))
	defer ts.Close()

	var health struct {
		Status    string  `json:"status"`
		UptimeS   float64 `json:"uptime_s"`
		GoVersion string  `json:"go_version"`
	}
	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health.GoVersion == "" || !strings.HasPrefix(health.GoVersion, "go") {
		t.Errorf("healthz go_version = %q, want goX.Y", health.GoVersion)
	}
	if health.UptimeS < 0 {
		t.Errorf("healthz uptime_s = %v, want >= 0", health.UptimeS)
	}

	var stats struct {
		UptimeS float64 `json:"uptime_s"`
		Build   struct {
			GoVersion string `json:"go_version"`
		} `json:"build"`
	}
	resp, err = ts.Client().Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stats.Build.GoVersion != health.GoVersion {
		t.Errorf("stats build.go_version = %q, healthz go_version = %q — want identical",
			stats.Build.GoVersion, health.GoVersion)
	}
}

// TestDebugMuxPprof smoke-tests the -debug-addr mux: the pprof index and a
// profile endpoint respond over real HTTP.
func TestDebugMuxPprof(t *testing.T) {
	ts := httptest.NewServer(debugMux())
	defer ts.Close()
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/cmdline", "/debug/pprof/goroutine?debug=1"} {
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: %d", path, resp.StatusCode)
		}
		if path == "/debug/pprof/" && !strings.Contains(string(body), "goroutine") {
			t.Errorf("pprof index missing profile listing")
		}
	}
}
