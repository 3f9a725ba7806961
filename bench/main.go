// Command bench is the one benchmark of the serving system: it builds
// ./cmd/ctcserve, runs it as a child process per workload, drives /query
// and /update over real HTTP on two keep-alive connections, and reports
// what a client sees (end-to-end metrics) and, in a separate traced run,
// what each layer contributes (per-layer metrics). See README.md.
//
// Usage:
//
//	bash bench/run.sh --workload read_dense --seed 1 --seconds 26 --trace 0
//	    one run of one workload; the last line of standard output is the
//	    result as one JSON object (the form BENCHMARK.json's driver uses)
//	bash bench/run.sh -seed 1 [-only mixed_wal] [-runs 10] [-out result.json]
//	    every workload, end-to-end and traced, printed by name with unit
//	    and sample count, and written to a result file
//	bash bench/run.sh compare old.json new.json
//	    one verdict per (workload, end-to-end metric)
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

// defaultSeconds is the measured time of one run; BENCHMARK.json's
// run_seconds is the same number.
const defaultSeconds = 26

// defaultWarmup is the unmeasured warm-up before the open phase.
const defaultWarmup = 1500 * time.Millisecond

func main() {
	os.Exit(run())
}

func run() int {
	var (
		root    = flag.String("root", "..", "repository root (the directory that holds cmd/ctcserve)")
		wlName  = flag.String("workload", "", "run this one workload once and print the result as the last line, as one JSON object")
		seed    = flag.Uint64("seed", 1, "seed of query sampling, update picks and the Zipf draw")
		seconds = flag.Float64("seconds", defaultSeconds, "measured seconds per run (open phase + closed phase)")
		trace   = flag.Int("trace", 0, "with -workload: 1 = also run the ladders and print the per-layer metrics instead")
		only    = flag.String("only", "", "full mode: run only this workload")
		runs    = flag.Int("runs", 1, "full mode: end-to-end runs per workload, on seeds seed, seed+1, ...")
		out     = flag.String("out", "", "full mode: result file (default <root>/.bench_build/result.json)")
		printBJ = flag.Bool("benchmark-json", false, "print BENCHMARK.json as the workload and metric tables define it, and exit")
	)
	flag.Parse()
	if *printBJ {
		_, _ = os.Stdout.Write(benchmarkJSON()) // nothing to do about a closed stdout
		return 0
	}
	if flag.Arg(0) == "compare" {
		if flag.NArg() != 3 {
			fmt.Fprintln(os.Stderr, "usage: bench compare old.json new.json")
			return 2
		}
		return compareFiles(os.Stdout, flag.Arg(1), flag.Arg(2))
	}
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", flag.Arg(0))
		return 2
	}

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	absRoot, err := filepath.Abs(*root)
	if err != nil {
		return fail(err)
	}
	buildDir := filepath.Join(absRoot, ".bench_build")
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return fail(err)
	}
	bin, err := buildServer(ctx, absRoot, buildDir)
	if err != nil {
		return fail(err)
	}
	cfg := runConfig{serverBin: bin, buildDir: buildDir, seed: *seed, seconds: *seconds, warmup: defaultWarmup}

	if *wlName != "" {
		w, err := workloadByName(*wlName)
		if err != nil {
			return fail(err)
		}
		cfg.trace = *trace != 0
		return runContract(ctx, cfg, w, readEnvironment(absRoot, buildDir, *seed, 1, *seconds))
	}

	set := workloads
	if *only != "" {
		w, err := workloadByName(*only)
		if err != nil {
			return fail(err)
		}
		set = []workload{w}
	}
	if *out == "" {
		*out = filepath.Join(buildDir, "result.json")
	}
	return runFull(ctx, cfg, set, *runs, *out, readEnvironment(absRoot, buildDir, *seed, *runs, *seconds))
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "bench:", err)
	return 1
}

// runContract is one run of one workload in the form the driver of
// BENCHMARK.json expects: the report goes to standard error, the result is
// the last line of standard output.
func runContract(ctx context.Context, cfg runConfig, w workload, env environment) int {
	res, err := runWorkload(ctx, cfg, w)
	if err != nil {
		return fail(err)
	}
	defs, title := endToEnd, "end-to-end"
	if cfg.trace {
		defs, title = perLayer, "per-layer"
	}
	res.Metrics = res.Metrics.finish(defs)
	printHeader(os.Stderr, env)
	printRun(os.Stderr, res, title, defs)
	fmt.Println(contractLine(res.Failed == 0, res.Attempted, res.Failed, res.Metrics))
	return 0
}

// resultFile is what full mode writes and compare reads.
type resultFile struct {
	Env  environment  `json:"env"`
	Runs []*runResult `json:"runs"`
}

// runFull runs every workload of set: runs end-to-end runs on consecutive
// seeds, then one traced run on the first seed. It exits non-zero if any
// run was invalid.
func runFull(ctx context.Context, cfg runConfig, set []workload, runs int, out string, env environment) int {
	printHeader(os.Stdout, env)
	file := resultFile{Env: env}
	valid := true
	for _, w := range set {
		for i := 0; i <= runs; i++ {
			c := cfg
			c.seed, c.trace = cfg.seed+uint64(i), false
			defs, title := endToEnd, "end-to-end"
			if i == runs {
				c.seed, c.trace = cfg.seed, true
				defs, title = perLayer, "per-layer (traced run)"
			}
			res, err := runWorkload(ctx, c, w)
			if err != nil {
				return fail(err)
			}
			res.Metrics = res.Metrics.finish(defs)
			printRun(os.Stdout, res, title, defs)
			file.Runs = append(file.Runs, res)
			valid = valid && res.Valid
		}
	}
	b, err := json.MarshalIndent(file, "", " ")
	if err != nil {
		return fail(err)
	}
	if err := os.WriteFile(out, append(b, '\n'), 0o644); err != nil {
		return fail(err)
	}
	fmt.Printf("result written to %s; spans in %s\n", out, filepath.Join(cfg.buildDir, "trace-<workload>.jsonl"))
	if !valid {
		fmt.Println("valid:false — at least one run was invalid, see above")
		return 1
	}
	fmt.Println("valid:true")
	return 0
}

func printHeader(w io.Writer, env environment) {
	b, _ := json.Marshal(env) // a struct of strings and numbers cannot fail to encode
	fmt.Fprintf(w, "env %s\n", b)
}

func printRun(w io.Writer, res *runResult, title string, defs []metricDef) {
	fmt.Fprintf(w, "workload %s seed %d: valid:%v attempted %d failed %d\n",
		res.Workload, res.Seed, res.Valid, res.Attempted, res.Failed)
	for _, why := range res.Invalid {
		fmt.Fprintf(w, "  INVALID: %s\n", why)
	}
	printMetrics(w, title, defs, res.Metrics)
}

// benchmarkJSON renders BENCHMARK.json from the workload and metric tables,
// so that the file the driver reads cannot drift from what the code reports.
func benchmarkJSON() []byte {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: defaultSeconds}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, wl{w.Name, w.Why})
	}
	for _, d := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{d.Name, d.Unit, d.Better})
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil { // strings and numbers only
		panic(err)
	}
	return append(b, '\n')
}
