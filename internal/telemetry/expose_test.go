package telemetry

import (
	"io"
	"math"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// validateHistogramFamily checks the Prometheus histogram invariants on a
// parsed family: cumulative non-decreasing buckets per child, a trailing
// +Inf bucket equal to _count, and _sum present. Shared with the e2e
// /metrics tests in cmd/ctcserve.
func validateHistogramFamily(t *testing.T, fam *ParsedFamily, name string) {
	t.Helper()
	if fam == nil {
		t.Fatalf("family %s missing", name)
	}
	if fam.Type != "histogram" {
		t.Fatalf("family %s has type %q, want histogram", name, fam.Type)
	}
	// Group samples by their non-le label set so vec children validate
	// independently.
	type child struct {
		buckets []ParsedSample
		sum     *ParsedSample
		count   *ParsedSample
	}
	children := map[string]*child{}
	key := func(labels map[string]string) string {
		var parts []string
		for k, v := range labels {
			if k == "le" {
				continue
			}
			parts = append(parts, k+"="+v)
		}
		// At most one extra label in this registry.
		return strings.Join(parts, ",")
	}
	for i := range fam.Samples {
		s := fam.Samples[i]
		c := children[key(s.Labels)]
		if c == nil {
			c = &child{}
			children[key(s.Labels)] = c
		}
		switch {
		case strings.HasSuffix(s.Name, "_bucket"):
			c.buckets = append(c.buckets, s)
		case strings.HasSuffix(s.Name, "_sum"):
			c.sum = &fam.Samples[i]
		case strings.HasSuffix(s.Name, "_count"):
			c.count = &fam.Samples[i]
		default:
			t.Fatalf("family %s: unexpected sample %s", name, s.Name)
		}
	}
	if len(children) == 0 {
		t.Fatalf("family %s has no samples", name)
	}
	for sel, c := range children {
		if c.sum == nil || c.count == nil {
			t.Fatalf("family %s{%s}: missing _sum or _count", name, sel)
		}
		if len(c.buckets) == 0 {
			t.Fatalf("family %s{%s}: no buckets", name, sel)
		}
		prevLE := math.Inf(-1)
		prevCum := -1.0
		for _, b := range c.buckets {
			le, err := parseFloat(b.Labels["le"])
			if err != nil {
				t.Fatalf("family %s{%s}: bad le %q", name, sel, b.Labels["le"])
			}
			if le <= prevLE {
				t.Fatalf("family %s{%s}: le %v not ascending after %v", name, sel, le, prevLE)
			}
			if b.Value < prevCum {
				t.Fatalf("family %s{%s}: bucket le=%v count %v < previous %v (not cumulative)",
					name, sel, le, b.Value, prevCum)
			}
			prevLE, prevCum = le, b.Value
		}
		last := c.buckets[len(c.buckets)-1]
		if !math.IsInf(prevLE, 1) {
			t.Fatalf("family %s{%s}: last bucket le=%v, want +Inf", name, sel, prevLE)
		}
		if last.Value != c.count.Value {
			t.Fatalf("family %s{%s}: +Inf bucket %v != _count %v", name, sel, last.Value, c.count.Value)
		}
	}
}

func buildTestRegistry() *Registry {
	r := NewRegistry()
	c := r.NewCounter("e_requests_total", "Requests served.")
	c.Add(42)
	g := r.NewGauge("e_depth", "Queue depth.")
	g.Set(-3)
	r.NewGaugeFunc("e_ratio", "A fractional gauge.", func() float64 { return 0.625 })
	r.NewCounterFunc("e_external_total", "External counter.", func() int64 { return 7 })
	h := r.NewHistogram("e_latency_seconds", "Latency.", []float64{0.001, 0.01, 0.1})
	h.Observe(500 * time.Microsecond)
	h.Observe(50 * time.Millisecond)
	h.Observe(2 * time.Second)
	hv := r.NewHistogramVec("e_algo_seconds", "Latency by algo.", "algo", []float64{0.01, 1})
	hv.With("LCTC").Observe(5 * time.Millisecond)
	hv.With("Basic").Observe(2 * time.Second)
	cv := r.NewCounterVec("e_outcomes_total", "Outcomes.", "outcome")
	cv.With("ok").Add(9)
	cv.With(`we"ird\la
bel`).Inc()
	r.NewInfo("e_build_info", "Build identity.", [][2]string{{"go_version", "go1.24"}, {"revision", "abc123"}})
	return r
}

func TestExpositionRoundTrip(t *testing.T) {
	r := buildTestRegistry()
	var sb strings.Builder
	if _, err := r.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	fams, err := ParseText(strings.NewReader(text))
	if err != nil {
		t.Fatalf("own output unparseable: %v\n%s", err, text)
	}

	wantTypes := map[string]string{
		"e_requests_total":  "counter",
		"e_external_total":  "counter",
		"e_outcomes_total":  "counter",
		"e_depth":           "gauge",
		"e_ratio":           "gauge",
		"e_build_info":      "gauge",
		"e_latency_seconds": "histogram",
		"e_algo_seconds":    "histogram",
	}
	for name, typ := range wantTypes {
		f := fams[name]
		if f == nil {
			t.Fatalf("family %s missing from:\n%s", name, text)
		}
		if f.Type != typ {
			t.Errorf("family %s type = %q, want %q", name, f.Type, typ)
		}
		if f.Help == "" {
			t.Errorf("family %s has no HELP", name)
		}
	}

	if v := fams["e_requests_total"].Samples[0].Value; v != 42 {
		t.Errorf("e_requests_total = %v, want 42", v)
	}
	if v := fams["e_depth"].Samples[0].Value; v != -3 {
		t.Errorf("e_depth = %v, want -3", v)
	}
	if v := fams["e_ratio"].Samples[0].Value; v != 0.625 {
		t.Errorf("e_ratio = %v, want 0.625", v)
	}

	validateHistogramFamily(t, fams["e_latency_seconds"], "e_latency_seconds")
	validateHistogramFamily(t, fams["e_algo_seconds"], "e_algo_seconds")

	// Spot-check exact cumulative values for the scalar histogram.
	var inf001, infAll float64
	for _, s := range fams["e_latency_seconds"].Samples {
		if strings.HasSuffix(s.Name, "_bucket") {
			switch s.Labels["le"] {
			case "0.001":
				inf001 = s.Value
			case "+Inf":
				infAll = s.Value
			}
		}
	}
	if inf001 != 1 || infAll != 3 {
		t.Errorf("e_latency_seconds buckets le=0.001:%v le=+Inf:%v, want 1 and 3", inf001, infAll)
	}

	// Label escaping must round-trip through the parser.
	found := false
	for _, s := range fams["e_outcomes_total"].Samples {
		if s.Labels["outcome"] == "we\"ird\\la\nbel" {
			found = true
			if s.Value != 1 {
				t.Errorf("escaped-label counter = %v, want 1", s.Value)
			}
		}
	}
	if !found {
		t.Errorf("escaped label did not round-trip:\n%s", text)
	}

	// Info metric carries its constant labels.
	bi := fams["e_build_info"].Samples[0]
	if bi.Value != 1 || bi.Labels["go_version"] != "go1.24" || bi.Labels["revision"] != "abc123" {
		t.Errorf("e_build_info = %+v, want value 1 with go_version/revision labels", bi)
	}

	// Vec children appear once per label value, sorted.
	algoLabels := []string{}
	for _, s := range fams["e_algo_seconds"].Samples {
		if strings.HasSuffix(s.Name, "_count") {
			algoLabels = append(algoLabels, s.Labels["algo"])
		}
	}
	if len(algoLabels) != 2 || algoLabels[0] != "Basic" || algoLabels[1] != "LCTC" {
		t.Errorf("algo children = %v, want [Basic LCTC]", algoLabels)
	}
}

func TestHandlerContentType(t *testing.T) {
	r := buildTestRegistry()
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("Content-Type = %q, want text exposition 0.0.4", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ParseText(strings.NewReader(string(body))); err != nil {
		t.Fatalf("handler output unparseable: %v", err)
	}
}

func TestFormatValue(t *testing.T) {
	cases := []struct {
		in   float64
		want string
	}{
		{0, "0"},
		{42, "42"},
		{-3, "-3"},
		{0.625, "0.625"},
		{0.0001, "0.0001"},
		{math.Inf(1), "+Inf"},
	}
	for _, tc := range cases {
		if got := formatValue(tc.in); got != tc.want {
			t.Errorf("formatValue(%v) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestTracerSlowlog(t *testing.T) {
	r := NewRegistry()
	tr := NewTracer(r, TracerOptions{SlowThreshold: 10 * time.Millisecond, SlowLogEntries: 3})
	fast := QueryRecord{Algo: "LCTC", Outcome: "ok", Total: time.Millisecond}
	tr.Observe(fast)
	for i := 1; i <= 5; i++ {
		tr.Observe(QueryRecord{
			Algo: "Basic", Outcome: "ok", Epoch: int64(i),
			Seed: time.Millisecond, Peel: 20 * time.Millisecond,
			Total: time.Duration(i) * 25 * time.Millisecond,
		})
	}
	if got := tr.SlowTotal(); got != 5 {
		t.Fatalf("SlowTotal = %d, want 5", got)
	}
	slow := tr.SlowQueries()
	if len(slow) != 3 {
		t.Fatalf("slowlog holds %d entries, want ring capacity 3", len(slow))
	}
	// Newest first: epochs 5, 4, 3.
	for i, wantEpoch := range []int64{5, 4, 3} {
		if slow[i].Epoch != wantEpoch {
			t.Errorf("slowlog[%d].Epoch = %d, want %d", i, slow[i].Epoch, wantEpoch)
		}
		if slow[i].Time.IsZero() {
			t.Errorf("slowlog[%d] has no timestamp", i)
		}
	}

	// The slowlog HTTP handler serves the same data as JSON.
	srv := httptest.NewServer(tr.SlowLogHandler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	for _, want := range []string{`"threshold_ms":10`, `"total_slow":5`, `"algo":"Basic"`, `"peel_us":20000`} {
		if !strings.Contains(string(body), want) {
			t.Errorf("slowlog response missing %s:\n%s", want, body)
		}
	}

	// Outcome and algo counters recorded alongside.
	var sb strings.Builder
	if _, err := r.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	fams, err := ParseText(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	validateHistogramFamily(t, fams["ctc_query_duration_seconds"], "ctc_query_duration_seconds")
	validateHistogramFamily(t, fams["ctc_query_phase_duration_seconds"], "ctc_query_phase_duration_seconds")
	var ok float64
	for _, s := range fams["ctc_queries_total"].Samples {
		if s.Labels["outcome"] == "ok" {
			ok = s.Value
		}
	}
	if ok != 6 {
		t.Errorf("ctc_queries_total{outcome=ok} = %v, want 6", ok)
	}
	if v := fams["ctc_slow_queries_total"].Samples[0].Value; v != 5 {
		t.Errorf("ctc_slow_queries_total = %v, want 5", v)
	}
}

func TestTracerDisabledSlowlog(t *testing.T) {
	r := NewRegistry()
	tr := NewTracer(r, TracerOptions{SlowThreshold: -1})
	tr.Observe(QueryRecord{Algo: "LCTC", Outcome: "ok", Total: time.Hour})
	if got := tr.SlowTotal(); got != 0 {
		t.Fatalf("disabled slowlog recorded %d entries", got)
	}
	if got := len(tr.SlowQueries()); got != 0 {
		t.Fatalf("disabled slowlog returned %d entries", got)
	}
}

func TestCacheHitSkipsPhases(t *testing.T) {
	r := NewRegistry()
	tr := NewTracer(r, TracerOptions{SlowThreshold: -1})
	tr.Observe(QueryRecord{Algo: "LCTC", Outcome: "ok", CacheHit: true,
		Seed: time.Second, Total: time.Millisecond})
	if snap := tr.phaseSeed.Snapshot(); snap.Count != 0 {
		t.Errorf("cache hit recorded %d phase samples, want 0", snap.Count)
	}
	if snap := tr.queueWait.Snapshot(); snap.Count != 0 {
		t.Errorf("cache hit recorded %d queue-wait samples, want 0", snap.Count)
	}
	if snap := tr.latency.With("LCTC").Snapshot(); snap.Count != 1 {
		t.Errorf("cache hit not in latency histogram: count %d, want 1", snap.Count)
	}
}

// TestTracerAlgoLabelPreregistration: AlgoLabels children exist in the
// exposition before any query is observed, so dashboards see every served
// algorithm from scrape one and late registrations cannot land in "_other".
func TestTracerAlgoLabelPreregistration(t *testing.T) {
	r := NewRegistry()
	labels := []string{"LCTC", "Basic", "BD", "Truss"}
	NewTracer(r, TracerOptions{SlowThreshold: -1, AlgoLabels: labels})
	var sb strings.Builder
	if _, err := r.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	body := sb.String()
	for _, a := range labels {
		series := `ctc_query_duration_seconds_count{algo="` + a + `"} 0`
		if !strings.Contains(body, series) {
			t.Errorf("exposition missing pre-registered series %q", series)
		}
	}
}
