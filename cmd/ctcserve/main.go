// Command ctcserve is the live closest-truss-community query server: it
// keeps a truss index of an evolving graph behind an epoch-snapshot index
// manager and serves lock-free queries while streaming edge updates are
// ingested and batched in the background.
//
// Usage:
//
//	ctcserve -net dblp -addr :8080
//	ctcserve -load index.ctc -addr :8080 -save index.ctc
//
// Endpoints:
//
//	POST /query          {"q":[1,2],"algo":"lctc|basic|bd|truss","k":0}
//	POST /update         {"op":"add","u":1,"v":2}  or  {"edges":[...],"flush":true}
//	GET  /stats          epoch, dirty count, snapshot age, queue depth, counters
//	GET  /healthz        liveness plus current epoch and build identity
//	GET  /metrics        Prometheus text exposition (the telemetry plane)
//	GET  /debug/slowlog  ring buffer of queries slower than -slow-query
//
// With -save, the final snapshot is persisted (versioned trussindex format,
// written atomically: temp file + fsync + rename) on clean shutdown
// (SIGINT/SIGTERM) and can be reloaded with -load, skipping the startup
// decomposition.
//
// With -wal DIR, the server is durable: every update batch is appended to a
// write-ahead log and fsynced before it is applied or acknowledged, the
// index is checkpointed into the log directory every -checkpoint-every
// epochs, and on startup the server recovers the pre-crash state from the
// newest valid checkpoint plus log replay (torn tails from a crash are
// truncated, never replayed). If the log itself fails at runtime (disk
// full, I/O error) the server degrades to read-only: queries keep serving
// the last published epoch, /update returns 503 with code "degraded" and a
// Retry-After hint, and /healthz reports {"status":"degraded"} with 503.
//
// Every query passes the overload-protection layer: concurrent execution
// is bounded to -max-inflight slots, a bounded deadline-aware admission
// queue (-admit-queue) drains round-robin across tenants (the "tenant"
// field or X-Tenant header), and repeated requests are answered from an
// epoch-keyed result cache (-cache-entries) that snapshot publishes
// invalidate by construction. A request shed by admission gets 429 with
// code "overloaded" and a Retry-After hint instead of queueing into a
// timeout; /healthz reports {"status":"overloaded"} (still 200 — shedding
// is healthy) while the gate is saturated.
//
// With -shards N (N > 1), the server becomes a sharded tier in one
// process: the edge set is vertex-cut across N serve.Managers (hash of the
// vertex ID by default; -shard-mode community co-locates ground-truth
// communities), each with its own writer loop, admission gate and — with
// -wal — its own log directory (shard-0000/, shard-0001/, ...). Queries
// scatter to the shards owning the query vertices, gather the exact
// connected component across shard snapshots, and recompute the k-truss of
// the union locally; responses carry the per-shard epoch vector in
// stats.shard_epochs. /stats gains a per-shard "shards" block, /healthz
// reports degraded if ANY shard is degraded, and /metrics grows
// ctc_shard_*{shard="i"} families plus router merge-phase histograms.
// -save is single-manager only and is rejected with -shards.
//
// Observability: /metrics exposes the full telemetry plane (query latency
// per algorithm and tenant, phase breakdowns, admission and cache counters,
// WAL fsync latency, epoch age, workspace-pool stats) in Prometheus text
// format; queries slower than -slow-query land in the /debug/slowlog ring
// with their phase breakdown; writer-loop events (publishes, checkpoints,
// fsync stalls, degraded transitions, admission sheds) are logged via
// log/slog at -log-level. With -debug-addr, a second listener serves
// net/http/pprof (CPU/heap/goroutine profiling), kept off the public
// address on purpose.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/admit"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/telemetry"
	"repro/internal/truss"
	"repro/internal/trussindex"
	"repro/internal/wal"
)

func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		netName   = flag.String("net", "dblp", "network analogue to serve (ignored with -load)")
		loadPath  = flag.String("load", "", "load a serialized truss index instead of generating a network")
		savePath  = flag.String("save", "", "persist the final snapshot here on shutdown")
		dirty     = flag.Int("publish-dirty", 64, "publish a snapshot after this many applied updates")
		interval  = flag.Duration("publish-interval", 200*time.Millisecond, "publish deadline for partial batches")
		queue     = flag.Int("queue", 1024, "bounded update-queue size")
		walDir    = flag.String("wal", "", "durable mode: write-ahead log directory (fsync before ack, crash recovery on start)")
		ckptEvery = flag.Int("checkpoint-every", 32, "with -wal, checkpoint the index every N published epochs")
		inflight  = flag.Int("max-inflight", 0, "concurrent query execution slots (0 = 2x GOMAXPROCS)")
		admitQ    = flag.Int("admit-queue", 0, "bounded admission queue size; arrivals past it get 429 (0 = default 256)")
		cacheN    = flag.Int("cache-entries", 0, "epoch-keyed result cache entries (0 = default 1024, negative = disabled)")
		slowQ     = flag.Duration("slow-query", 250*time.Millisecond, "queries at least this slow enter /debug/slowlog (negative = disabled)")
		slowN     = flag.Int("slowlog", 128, "slow-query ring-buffer entries")
		debugAddr = flag.String("debug-addr", "", "separate listener for net/http/pprof (empty = no pprof)")
		logLevel  = flag.String("log-level", "info", "log verbosity: debug, info, warn, error")
		shards    = flag.Int("shards", 1, "serve a sharded tier of N partitioned managers behind a scatter-gather router")
		shardMode = flag.String("shard-mode", "hash", "vertex-to-shard assignment: hash, or community (ground-truth co-location; needs -net)")
		shardSeed = flag.Uint64("shard-seed", 1, "seed of the deterministic vertex-to-shard hash")
	)
	flag.Parse()
	logger, err := newLogger(*logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ctcserve:", err)
		os.Exit(2)
	}
	if err := run(runConfig{
		addr:      *addr,
		netName:   *netName,
		loadPath:  *loadPath,
		savePath:  *savePath,
		walDir:    *walDir,
		debugAddr: *debugAddr,
		slowQuery: *slowQ,
		slowlogN:  *slowN,
		shards:    *shards,
		shardMode: *shardMode,
		shardSeed: *shardSeed,
		logger:    logger,
		opts: serve.Options{
			QueueSize:       *queue,
			PublishDirty:    *dirty,
			PublishInterval: *interval,
			CheckpointEvery: *ckptEvery,
			Admission: admit.Config{
				MaxConcurrent: *inflight,
				QueueSize:     *admitQ,
				CacheEntries:  *cacheN,
			},
		},
	}); err != nil {
		fmt.Fprintln(os.Stderr, "ctcserve:", err)
		os.Exit(1)
	}
}

// newLogger builds the process logger: structured key=value text on stderr.
func newLogger(level string) (*slog.Logger, error) {
	var lv slog.Level
	if err := lv.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("bad -log-level %q (want debug, info, warn or error)", level)
	}
	return slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: lv})), nil
}

// runConfig is everything run needs; main translates flags into it.
type runConfig struct {
	addr      string
	netName   string
	loadPath  string
	savePath  string
	walDir    string
	debugAddr string
	slowQuery time.Duration
	slowlogN  int
	shards    int
	shardMode string
	shardSeed uint64
	logger    *slog.Logger
	opts      serve.Options
}

// baseIndex builds the starting index: a deserialized snapshot with -load,
// otherwise a full decomposition of the generated network.
func baseIndex(netName, loadPath string, logger *slog.Logger) (*trussindex.Index, error) {
	if loadPath != "" {
		f, err := os.Open(loadPath)
		if err != nil {
			return nil, err
		}
		ix, err := trussindex.ReadFrom(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("loading %s: %w", loadPath, err)
		}
		logger.Info("loaded index", "path", loadPath,
			"n", ix.Graph().N(), "m", ix.Graph().M(), "max_truss", ix.MaxTruss())
		return ix, nil
	}
	nw, err := gen.NetworkByName(netName)
	if err != nil {
		return nil, err
	}
	g := nw.Graph()
	logger.Info("decomposing network", "net", netName, "n", g.N(), "m", g.M())
	t0 := time.Now()
	ix := trussindex.BuildFromDecomposition(g, truss.Decompose(g))
	logger.Info("decomposed", "duration", time.Since(t0))
	return ix, nil
}

func run(cfg runConfig) error {
	logger := cfg.logger
	if logger == nil {
		logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
	}
	start := time.Now()

	// The telemetry plane: one registry for the whole process, the query
	// tracer, uptime and build identity. The manager registers its families
	// into the same registry at construction.
	reg := telemetry.NewRegistry()
	telemetry.RegisterBuildInfo(reg)
	reg.NewGaugeFunc("ctc_uptime_seconds", "Seconds since process start.",
		func() float64 { return time.Since(start).Seconds() })
	tracer := telemetry.NewTracer(reg, telemetry.TracerOptions{
		SlowThreshold:  cfg.slowQuery,
		SlowLogEntries: cfg.slowlogN,
		AlgoLabels:     core.AlgoNames(),
	})
	cfg.opts.Metrics = reg
	cfg.opts.Tracer = tracer
	cfg.opts.Logger = logger

	// The startup banner: one structured line carrying every knob an
	// operator needs to correlate a log archive with a configuration.
	b := telemetry.Build()
	logger.Info("ctcserve starting",
		"addr", cfg.addr, "net", cfg.netName, "load", cfg.loadPath,
		"wal", cfg.walDir, "durable", cfg.walDir != "",
		"publish_dirty", cfg.opts.PublishDirty, "publish_interval", cfg.opts.PublishInterval,
		"update_queue", cfg.opts.QueueSize, "checkpoint_every", cfg.opts.CheckpointEvery,
		"max_inflight", cfg.opts.Admission.MaxConcurrent,
		"admit_queue", cfg.opts.Admission.QueueSize,
		"cache_entries", cfg.opts.Admission.CacheEntries,
		"slow_query", cfg.slowQuery, "debug_addr", cfg.debugAddr,
		"shards", cfg.shards, "shard_mode", cfg.shardMode,
		"go_version", b.GoVersion, "revision", b.Revision)

	var back backend
	var mgr *serve.Manager
	if cfg.shards > 1 {
		if cfg.savePath != "" {
			return fmt.Errorf("-save is single-manager only; with -shards use -wal for per-shard durability")
		}
		router, err := openRouter(cfg, reg, tracer, logger)
		if err != nil {
			return err
		}
		defer router.Close()
		st := router.Stats()
		logger.Info("sharded tier up", "shards", router.Shards(),
			"n", st.Vertices, "edges_materialized", st.Edges)
		back = router
	} else if cfg.walDir != "" {
		m, recovered, err := serve.OpenDurable(cfg.walDir,
			func() (*trussindex.Index, error) { return baseIndex(cfg.netName, cfg.loadPath, logger) },
			wal.Options{}, cfg.opts)
		if err != nil {
			return fmt.Errorf("opening wal %s: %w", cfg.walDir, err)
		}
		mgr = m
		defer mgr.Close()
		back = mgr
		if recovered {
			st := mgr.Stats()
			logger.Info("recovered from write-ahead log", "dir", cfg.walDir,
				"epoch", st.Epoch, "n", st.Vertices, "m", st.Edges,
				"checkpoint_seq", st.WALCheckpointSeq)
		} else {
			logger.Info("initialized write-ahead log", "dir", cfg.walDir)
		}
	} else {
		ix, err := baseIndex(cfg.netName, cfg.loadPath, logger)
		if err != nil {
			return err
		}
		mgr = serve.NewManagerFromIndex(ix, cfg.opts)
		defer mgr.Close()
		back = mgr
	}

	srv := &http.Server{Addr: cfg.addr, Handler: newServerWith(back, reg, tracer)}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	logger.Info("listening", "addr", cfg.addr)

	if cfg.debugAddr != "" {
		dsrv := &http.Server{Addr: cfg.debugAddr, Handler: debugMux()}
		go func() {
			if err := dsrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				logger.Warn("debug listener failed", "addr", cfg.debugAddr, "err", err)
			}
		}()
		defer dsrv.Close()
		logger.Info("pprof listening", "addr", cfg.debugAddr)
	}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errc:
		return err
	case sig := <-sigc:
		logger.Info("shutting down", "signal", sig.String())
		// Drain in-flight requests (bounded) before persisting the snapshot.
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := srv.Shutdown(ctx); err != nil {
			_ = srv.Close()
		}
		cancel()
	}
	if cfg.savePath != "" && mgr != nil {
		if err := saveSnapshot(mgr, cfg.savePath, logger); err != nil {
			return err
		}
	}
	return nil
}

// openRouter builds the sharded tier: the base graph (generated network, or
// a loaded index's graph), partitioned across cfg.shards managers behind
// the scatter-gather router. Each shard decomposes its own subgraph, so
// there is no full-graph decomposition on this path; with -wal every shard
// logs into its own subdirectory. Per-shard managers get no registry of
// their own — the router exposes the ctc_shard_*{shard} families instead.
func openRouter(cfg runConfig, reg *telemetry.Registry, tracer *telemetry.Tracer, logger *slog.Logger) (*shard.Router, error) {
	var g *graph.Graph
	var comms [][]int
	if cfg.loadPath != "" {
		ix, err := baseIndex("", cfg.loadPath, logger)
		if err != nil {
			return nil, err
		}
		g = ix.Graph()
	} else {
		nw, err := gen.NetworkByName(cfg.netName)
		if err != nil {
			return nil, err
		}
		g = nw.Graph()
		comms = nw.GroundTruth()
	}
	scfg := shard.Config{
		Shards:  cfg.shards,
		Seed:    cfg.shardSeed,
		Serve:   cfg.opts,
		WALDir:  cfg.walDir,
		Metrics: reg,
		Tracer:  tracer,
		Logger:  logger,
	}
	// One registry serves one metrics owner: the router owns observability,
	// so the per-shard managers must not register their own families (and
	// shard.New rejects a non-nil per-shard registry outright).
	scfg.Serve.Metrics, scfg.Serve.Tracer, scfg.Serve.Logger = nil, nil, nil
	switch cfg.shardMode {
	case "", "hash":
	case "community":
		if comms == nil {
			return nil, fmt.Errorf("-shard-mode community needs a -net with ground-truth communities (got net=%q load=%q)",
				cfg.netName, cfg.loadPath)
		}
		scfg.Communities = comms
	default:
		return nil, fmt.Errorf("bad -shard-mode %q (want hash or community)", cfg.shardMode)
	}
	return shard.New(g, scfg)
}

// debugMux serves net/http/pprof on its own mux, for the -debug-addr
// listener only: profiling endpoints expose internals (and the CPU profile
// stalls the world a little), so they never mount on the public address.
func debugMux() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// saveSnapshot flushes pending updates and persists the resulting epoch
// atomically: a failure at any point (including mid-write) leaves a
// previously saved index at path untouched and readable.
func saveSnapshot(mgr *serve.Manager, path string, logger *slog.Logger) error {
	_ = mgr.Flush()
	snap := mgr.Acquire()
	defer snap.Release()
	var n int64
	err := writeFileAtomic(path, func(f *os.File) error {
		var werr error
		n, werr = snap.Index().WriteTo(f)
		return werr
	})
	if err != nil {
		return fmt.Errorf("saving %s: %w", path, err)
	}
	logger.Info("saved snapshot", "epoch", snap.Epoch(), "path", path, "bytes", n)
	return nil
}
