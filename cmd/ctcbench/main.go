// Command ctcbench regenerates the paper's tables and figures on the
// synthetic network analogues and prints them as text tables.
//
// Usage:
//
//	ctcbench -exp all
//	ctcbench -exp t2,t3,fig5,fig12 -queries 20 -seed 7
//
// Experiment IDs: t2, t3, fig5, fig6, fig7, fig8, fig9, fig10, fig11,
// fig12, fig13, fig14, fig15, fig16, ablation, ext.
//
// The serving benchmark lives in bench/ (see bench/README.md).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/exp"
	"repro/internal/gen"
)

func main() {
	var (
		expList = flag.String("exp", "all", "comma-separated experiment IDs (or 'all')")
		queries = flag.Int("queries", 8, "queries averaged per data point")
		seed    = flag.Uint64("seed", 0, "query sampling seed (0 = default)")
		basicTO = flag.Duration("basic-timeout", 2*time.Second, "per-run budget for Basic before reporting Inf")
		quiet   = flag.Bool("quiet", false, "suppress progress output")
		csvDir  = flag.String("csv", "", "also write each artifact as CSV into this directory")
	)
	flag.Parse()
	cfg := exp.Config{
		QueriesPerPoint: *queries,
		Seed:            *seed,
		BasicTimeout:    *basicTO,
		Quiet:           *quiet,
		Progress:        os.Stderr,
	}
	if err := run(*expList, cfg, *csvDir); err != nil {
		fmt.Fprintln(os.Stderr, "ctcbench:", err)
		os.Exit(1)
	}
}

func run(expList string, cfg Config, csvDir string) error {
	wanted := map[string]bool{}
	for _, id := range strings.Split(strings.ToLower(expList), ",") {
		wanted[strings.TrimSpace(id)] = true
	}
	all := wanted["all"]
	want := func(id string) bool { return all || wanted[id] }
	out := os.Stdout
	ran := 0

	dblp, _ := gen.NetworkByName("dblp")
	facebook, _ := gen.NetworkByName("facebook")

	saveTable := func(t *exp.Table) error {
		t.Render(out)
		if csvDir != "" {
			return exp.SaveTableCSV(csvDir, t)
		}
		return nil
	}
	saveFigs := func(figs []*exp.Figure) error {
		for _, f := range figs {
			f.Render(out)
		}
		if csvDir != "" {
			return exp.SaveFiguresCSV(csvDir, figs)
		}
		return nil
	}
	if want("t2") {
		if err := saveTable(exp.Table2(cfg)); err != nil {
			return err
		}
		ran++
	}
	if want("t3") {
		if err := saveTable(exp.Table3(cfg)); err != nil {
			return err
		}
		ran++
	}
	type figRun struct {
		id  string
		fn  func() []*exp.Figure
		net *gen.Network
	}
	runs := []figRun{
		{"fig5", func() []*exp.Figure { return exp.RunQuerySize(dblp, "Fig5", cfg) }, dblp},
		{"fig6", func() []*exp.Figure { return exp.RunQuerySize(facebook, "Fig6", cfg) }, facebook},
		{"fig7", func() []*exp.Figure { return exp.RunDegreeRank(dblp, "Fig7", cfg) }, dblp},
		{"fig8", func() []*exp.Figure { return exp.RunDegreeRank(facebook, "Fig8", cfg) }, facebook},
		{"fig9", func() []*exp.Figure { return exp.RunInterDistance(dblp, "Fig9", cfg) }, dblp},
		{"fig10", func() []*exp.Figure { return exp.RunInterDistance(facebook, "Fig10", cfg) }, facebook},
		{"fig12", func() []*exp.Figure { return exp.RunGroundTruth(cfg, nil) }, nil},
		{"fig13", func() []*exp.Figure { return exp.RunDiamApprox(facebook, cfg) }, facebook},
		{"fig14", func() []*exp.Figure { return []*exp.Figure{exp.RunVaryK(facebook, cfg)} }, facebook},
		{"fig15", func() []*exp.Figure { return exp.RunVaryEta(dblp, cfg) }, dblp},
		{"fig16", func() []*exp.Figure { return exp.RunVaryGamma(dblp, cfg) }, dblp},
		{"ablation", func() []*exp.Figure {
			return []*exp.Figure{exp.RunAblationSteiner(facebook, cfg), exp.RunAblationBulkRule(facebook, cfg)}
		}, facebook},
	}
	for _, r := range runs {
		if !want(r.id) {
			continue
		}
		if err := saveFigs(r.fn()); err != nil {
			return err
		}
		ran++
	}
	if want("ext") {
		if err := saveTable(exp.ExtensionTable(cfg)); err != nil {
			return err
		}
		ran++
	}
	if want("fig11") {
		res, err := exp.CaseStudy(1)
		if err != nil {
			return err
		}
		if err := saveTable(res.Table()); err != nil {
			return err
		}
		fmt.Fprintf(out, "  query authors: %s\n", strings.Join(res.QueryNames, ", "))
		fmt.Fprintf(out, "  LCTC community: %s\n\n", strings.Join(res.MemberNames, ", "))
		ran++
	}
	if ran == 0 {
		return fmt.Errorf("no experiments matched %q", expList)
	}
	return nil
}

// Config aliases the exp configuration for the flag wiring above.
type Config = exp.Config
