package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// childProcs is the GOMAXPROCS the server runs with, set explicitly in its
// environment so that the numbers do not depend on what the host defaults to.
const childProcs = 2

// buildServer compiles ./cmd/ctcserve of the repository at root once per
// invocation (a no-op when the Go build cache is warm). The build is not
// part of setup_s.
func buildServer(ctx context.Context, root, buildDir string) (string, error) {
	bin := filepath.Join(buildDir, "ctcserve")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/ctcserve")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/ctcserve: %v\n%s", err, out)
	}
	return bin, nil
}

// child is one running ctcserve and the generator's HTTP client for it.
type child struct {
	cmd    *exec.Cmd
	base   string
	client *http.Client
	exited chan struct{} // closed once the process has been waited for
	setup  time.Duration // start of the process until /healthz answered 200
}

// newClient returns a client that holds at most conns keep-alive
// connections to the server, which is all the generator ever uses.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		IdleConnTimeout:     time.Minute,
		DisableCompression:  true,
	}}
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startChild starts ctcserve for w on a free loopback port and polls
// /healthz until it answers 200. walDir is passed as -wal when non-empty.
func startChild(ctx context.Context, bin string, w workload, walDir string) (*child, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	args := []string{"-net", w.Net, "-addr", addr, "-log-level", "warn"}
	if walDir != "" {
		args = append(args, "-wal", walDir)
	}
	cmd := exec.Command(bin, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(childProcs))
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = childSysProcAttr()
	c := &child{cmd: cmd, base: "http://" + addr, client: newClient(), exited: make(chan struct{})}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	go func() {
		_ = cmd.Wait() // the exit status of a signalled server carries no information
		close(c.exited)
	}()
	for {
		if c.healthy(ctx) {
			c.setup = time.Since(t0)
			return c, nil
		}
		select {
		case <-c.exited:
			return nil, fmt.Errorf("ctcserve %v exited before it was healthy", args)
		case <-ctx.Done():
			c.stop(syscall.SIGKILL)
			return nil, ctx.Err()
		case <-time.After(time.Millisecond):
		}
		if time.Since(t0) > 2*time.Minute {
			c.stop(syscall.SIGKILL)
			return nil, fmt.Errorf("ctcserve %v not healthy after 2 minutes", args)
		}
	}
}

func (c *child) healthy(ctx context.Context) bool {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode == http.StatusOK
}

// stop signals the server and waits until it has ended; a server that does
// not honour SIGTERM within 15 s is killed.
func (c *child) stop(sig syscall.Signal) {
	_ = c.cmd.Process.Signal(sig)
	select {
	case <-c.exited:
	case <-time.After(15 * time.Second):
		_ = c.cmd.Process.Kill()
		<-c.exited
	}
	c.client.CloseIdleConnections()
}

// post sends body to path and returns the status and the response body.
func (c *child) post(ctx context.Context, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

func (c *child) get(ctx context.Context, path string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return io.ReadAll(resp.Body)
}

// scrape is the server's own telemetry at one instant: the /stats JSON
// fields the benchmark reads, every unlabelled /metrics sample, and the
// process's CPU time.
type scrape struct {
	Stats struct {
		Edges         int   `json:"m"`
		Publishes     int64 `json:"publishes"`
		FullRebuilds  int64 `json:"full_rebuilds"`
		ShedDeadline  int64 `json:"queries_shed_deadline"`
		ShedQueueFull int64 `json:"queries_shed_queue_full"`
		CacheHits     int64 `json:"cache_hits"`
		CacheMisses   int64 `json:"cache_misses"`
		WALSyncs      int64 `json:"wal_syncs"`
		Degraded      bool  `json:"degraded"`
	}
	Metrics map[string]float64
	CPU     time.Duration
}

func (c *child) scrape(ctx context.Context) (*scrape, error) {
	var s scrape
	b, err := c.get(ctx, "/stats")
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(b, &s.Stats); err != nil {
		return nil, fmt.Errorf("decoding /stats: %w", err)
	}
	if b, err = c.get(ctx, "/metrics"); err != nil {
		return nil, err
	}
	s.Metrics = parseMetrics(b)
	if s.CPU, err = procCPU(c.cmd.Process.Pid); err != nil {
		return nil, err
	}
	return &s, nil
}

// parseMetrics reads the unlabelled samples of a Prometheus text
// exposition: "name value" lines. Labelled series are skipped; the
// benchmark needs none of them.
func parseMetrics(text []byte) map[string]float64 {
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' || strings.ContainsRune(line, '{') {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if f, err := strconv.ParseFloat(strings.TrimSpace(val), 64); err == nil {
			out[name] = f
		}
	}
	return out
}

// meanMS is the mean of a Prometheus histogram over the interval between
// two scrapes, in milliseconds, with the number of observations.
func meanMS(before, after *scrape, family string) (float64, int) {
	n := after.Metrics[family+"_count"] - before.Metrics[family+"_count"]
	if n <= 0 {
		return 0, 0
	}
	return (after.Metrics[family+"_sum"] - before.Metrics[family+"_sum"]) / n * 1000, int(n)
}
