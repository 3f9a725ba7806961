package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/serve"
	"repro/internal/truss"
	"repro/internal/trussindex"
	"repro/internal/wal"
)

// TestMain doubles as the kill -9 smoke's server process: when the helper
// env vars are set, the test binary runs the real ctcserve entry point
// (blocking until killed) instead of the test suite.
func TestMain(m *testing.M) {
	if addr := os.Getenv("CTCSERVE_HELPER_ADDR"); addr != "" {
		err := run(runConfig{
			addr:     addr,
			loadPath: os.Getenv("CTCSERVE_HELPER_LOAD"),
			walDir:   os.Getenv("CTCSERVE_HELPER_WAL"),
			opts: serve.Options{
				PublishDirty:    8,
				PublishInterval: 50 * time.Millisecond,
			},
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "ctcserve helper:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func buildIndexFile(t *testing.T, g *graph.Graph, path string) *trussindex.Index {
	t.Helper()
	ix := trussindex.BuildFromDecomposition(g, truss.Decompose(g))
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ix.WriteTo(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return ix
}

// TestWriteFileAtomicKeepsPrevious pins the -save crash-safety contract: a
// payload that fails halfway through its writes must leave the previously
// saved index untouched and loadable, with no temp litter.
func TestWriteFileAtomicKeepsPrevious(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "index.ctc")
	g := gen.ErdosRenyi(30, 0.2, 0xA70)
	want := buildIndexFile(t, g, path)

	err := writeFileAtomic(path, func(f *os.File) error {
		if _, werr := f.Write([]byte("half a snapshot that will never be com")); werr != nil {
			return werr
		}
		return errors.New("simulated mid-write failure")
	})
	if err == nil {
		t.Fatal("failing payload did not surface an error")
	}

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ix, err := trussindex.ReadFrom(f)
	if err != nil {
		t.Fatalf("previous index unreadable after failed save: %v", err)
	}
	if ix.Graph().M() != want.Graph().M() || ix.MaxTruss() != want.MaxTruss() {
		t.Fatal("previous index content changed")
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		names := make([]string, len(ents))
		for i, e := range ents {
			names[i] = e.Name()
		}
		t.Fatalf("temp litter left behind: %v", names)
	}
}

func durableTestServer(t *testing.T, fs *wal.MemFS) (*serve.Manager, *httptest.Server) {
	t.Helper()
	g := gen.ErdosRenyi(40, 0.18, 0xD1E)
	base := func() (*trussindex.Index, error) {
		return trussindex.BuildFromDecomposition(g, truss.Decompose(g)), nil
	}
	m, _, err := serve.OpenDurable("wal", base, wal.Options{FS: fs}, serve.Options{
		PublishDirty:    8,
		PublishInterval: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	ts := httptest.NewServer(newServer(m))
	t.Cleanup(ts.Close)
	return m, ts
}

// TestStatsJSONShape pins the wire shape of the durability observability
// fields: operators' dashboards key on these exact names.
func TestStatsJSONShape(t *testing.T) {
	_, ts := durableTestServer(t, wal.NewMemFS())
	c := ts.Client()
	if code := postJSON(t, c, ts.URL+"/update", updateRequest{
		updateOp: updateOp{Op: "add", U: 1, V: 2}, Flush: true,
	}, nil); code != 200 {
		t.Fatalf("/update status %d", code)
	}
	resp, err := c.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var raw map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		"epoch", "n", "m", "degraded",
		"wal_enabled", "wal_last_seq", "wal_durable_seq", "wal_checkpoint_seq",
		"wal_segments", "wal_bytes", "wal_appends", "wal_syncs",
		"wal_last_fsync_us", "wal_dropped_updates",
	} {
		if _, ok := raw[key]; !ok {
			t.Errorf("/stats missing %q", key)
		}
	}
	if raw["wal_enabled"] != true {
		t.Fatal("wal_enabled false on a durable server")
	}
	if raw["degraded"] != false {
		t.Fatal("healthy server reports degraded")
	}
	if n, _ := raw["wal_durable_seq"].(float64); n < 2 {
		t.Fatalf("wal_durable_seq %v after a flushed update", raw["wal_durable_seq"])
	}
}

// TestServerDegradedSurface drives a WAL failure through the full HTTP
// surface: /update turns into a typed 503 ("degraded", not a generic
// error), /healthz goes unhealthy with the WAL error, and /query keeps
// serving the last published epoch.
func TestServerDegradedSurface(t *testing.T) {
	fs := wal.NewMemFS()
	_, ts := durableTestServer(t, fs)
	c := ts.Client()

	// Healthy first.
	if code := postJSON(t, c, ts.URL+"/update", updateRequest{
		updateOp: updateOp{Op: "add", U: 1, V: 2}, Flush: true,
	}, nil); code != 200 {
		t.Fatalf("healthy /update status %d", code)
	}

	// Disk dies.
	fs.Fail = func(op, name string) error {
		if op == "write" || op == "sync" {
			return fmt.Errorf("%w: disk full", wal.ErrInjected)
		}
		return nil
	}
	body, _ := json.Marshal(updateRequest{updateOp: updateOp{Op: "add", U: 3, V: 4}, Flush: true})
	resp, err := c.Post(ts.URL+"/update", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	var e map[string]string
	if derr := json.NewDecoder(resp.Body).Decode(&e); derr != nil {
		t.Fatal(derr)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || e["code"] != "degraded" {
		t.Fatalf("/update during WAL failure: status %d code %q, want 503 degraded", resp.StatusCode, e["code"])
	}
	// Subsequent updates are rejected up front.
	if code := postJSON(t, c, ts.URL+"/update", updateRequest{
		updateOp: updateOp{Op: "add", U: 5, V: 6},
	}, nil); code != http.StatusServiceUnavailable {
		t.Fatalf("/update while degraded: status %d, want 503", code)
	}

	resp, err = c.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/healthz while degraded: status %d, want 503", resp.StatusCode)
	}

	// Reads stay up.
	if code := postJSON(t, c, ts.URL+"/query", queryRequest{Q: []int{1, 2}, Algo: "truss"}, nil); code != 200 && code != 404 {
		t.Fatalf("/query while degraded: status %d", code)
	}
	resp, err = c.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]any
	if derr := json.NewDecoder(resp.Body).Decode(&raw); derr != nil {
		t.Fatal(derr)
	}
	resp.Body.Close()
	if raw["degraded"] != true || raw["wal_last_error"] == "" {
		t.Fatalf("degraded stats not surfaced: degraded=%v wal_last_error=%v", raw["degraded"], raw["wal_last_error"])
	}
}

// TestKillNineRecovery is the real-process crash smoke: a ctcserve child
// (this test binary re-exec'd through TestMain) serves with -wal, takes
// flushed updates over HTTP, and is killed with SIGKILL — no shutdown path
// runs. A restarted child on the same directory must recover, and its
// truss-community answers must match a differential oracle computed from
// scratch on the expected post-update graph.
func TestKillNineRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real server processes")
	}
	dir := t.TempDir()
	walDir := filepath.Join(dir, "wal")
	loadPath := filepath.Join(dir, "base.ctc")
	g := gen.ErdosRenyi(60, 0.12, 0x9E11)
	buildIndexFile(t, g, loadPath)

	// The expected final graph: base + a fresh 6-clique + two base-range
	// edges, minus one pre-existing edge.
	cliqueBase := g.N()
	var ups []updateOp
	for i := 0; i < 6; i++ {
		for j := i + 1; j < 6; j++ {
			ups = append(ups, updateOp{Op: "add", U: cliqueBase + i, V: cliqueBase + j})
		}
	}
	ups = append(ups, updateOp{Op: "add", U: 0, V: 1}, updateOp{Op: "add", U: 0, V: 2})
	delU, delV := g.EdgeEndpoints(0)
	ups = append(ups, updateOp{Op: "remove", U: delU, V: delV})

	model := map[graph.EdgeKey]bool{}
	for _, k := range g.EdgeKeys() {
		model[k] = true
	}
	for _, op := range ups {
		if op.Op == "add" {
			model[graph.Key(op.U, op.V)] = true
		} else {
			delete(model, graph.Key(op.U, op.V))
		}
	}
	b := graph.NewBuilder(cliqueBase+6, len(model))
	b.EnsureVertex(cliqueBase + 5)
	for k := range model {
		u, v := k.Endpoints()
		b.AddEdge(u, v)
	}
	oracleG := b.Build()
	oracle := core.NewSearcher(trussindex.BuildFromDecomposition(oracleG, truss.Decompose(oracleG)))

	addr := freeAddr(t)
	start := func() *exec.Cmd {
		cmd := exec.Command(os.Args[0])
		cmd.Env = append(os.Environ(),
			"CTCSERVE_HELPER_ADDR="+addr,
			"CTCSERVE_HELPER_LOAD="+loadPath,
			"CTCSERVE_HELPER_WAL="+walDir,
		)
		cmd.Stdout = os.Stderr
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		return cmd
	}
	waitHealthy := func(cmd *exec.Cmd) {
		t.Helper()
		deadline := time.Now().Add(15 * time.Second)
		for time.Now().Before(deadline) {
			resp, err := http.Get("http://" + addr + "/healthz")
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode == 200 {
					return
				}
			}
			time.Sleep(50 * time.Millisecond)
		}
		_ = cmd.Process.Kill()
		t.Fatal("server did not become healthy")
	}

	cmd := start()
	waitHealthy(cmd)
	c := &http.Client{Timeout: 10 * time.Second}
	// Two flushed batches: both acknowledged, hence both must be durable.
	half := len(ups) / 2
	for _, batch := range [][]updateOp{ups[:half], ups[half:]} {
		var ur updateResponse
		if code := postJSON(t, c, "http://"+addr+"/update", updateRequest{Edges: batch, Flush: true}, &ur); code != 200 {
			t.Fatalf("/update status %d", code)
		}
	}

	// SIGKILL: no Close, no final save — the WAL is all that survives.
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_ = cmd.Wait()

	cmd2 := start()
	defer func() {
		_ = cmd2.Process.Kill()
		_, _ = cmd2.Process.Wait()
	}()
	waitHealthy(cmd2)

	var st statsResponse
	resp, err := c.Get("http://" + addr + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Edges != oracleG.M() {
		t.Fatalf("recovered server has m=%d, oracle %d", st.Edges, oracleG.M())
	}
	if !st.WALEnabled {
		t.Fatal("recovered server reports wal disabled")
	}

	// Differential queries: the recovered community answers must match a
	// from-scratch decomposition of the expected graph.
	queries := [][]int{{cliqueBase, cliqueBase + 5}, {0, 1}, {delU, delV}}
	for _, q := range queries {
		wantG0, wantErr := oracle.Search(context.Background(), core.Request{Q: q, Algo: core.AlgoTrussOnly})
		var qr queryResponse
		code := postJSON(t, c, "http://"+addr+"/query", queryRequest{Q: q, Algo: "truss"}, &qr)
		if wantErr != nil {
			if code != http.StatusNotFound {
				t.Fatalf("query %v: status %d, oracle says no community", q, code)
			}
			continue
		}
		if code != 200 {
			t.Fatalf("query %v: status %d", q, code)
		}
		if qr.K != wantG0.K {
			t.Fatalf("query %v: k=%d, oracle %d", q, qr.K, wantG0.K)
		}
		want := append([]int(nil), wantG0.Vertices()...)
		got := append([]int(nil), qr.Vertices...)
		sort.Ints(want)
		sort.Ints(got)
		if len(got) != len(want) {
			t.Fatalf("query %v: %d vertices, oracle %d", q, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("query %v: vertex sets differ at %d: %d vs %d", q, i, got[i], want[i])
			}
		}
	}
}

func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}
