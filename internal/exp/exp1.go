package exp

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/quality"
)

// pointAccumulator gathers per-query measurements for one x value of an
// Exp-1 figure triple (time / kept-percentage / density).
type pointAccumulator struct {
	times, percents, densities map[string][]float64
	timeouts                   map[string]int
}

func newPointAccumulator() *pointAccumulator {
	return &pointAccumulator{
		times:     map[string][]float64{},
		percents:  map[string][]float64{},
		densities: map[string][]float64{},
		timeouts:  map[string]int{},
	}
}

// exp1Algos are the methods compared in Figures 5-10.
var exp1Algos = []string{"Basic", "BD", "LCTC"}

// runOneQuery measures the three algorithms on a single query set.
func runOneQuery(s *core.Searcher, q []int, cfg Config, acc *pointAccumulator) bool {
	truss, err := search(s, core.Request{Q: q, Algo: core.AlgoTrussOnly}, 0)
	if err != nil {
		return false // infeasible query; resample
	}
	g0N := truss.N()
	run := func(name string, algo core.Algo, budget time.Duration) {
		var c *core.Community
		secs, err := timed(func() error {
			var e error
			c, e = search(s, core.Request{Q: q, Algo: algo}, budget)
			return e
		})
		if errors.Is(err, context.DeadlineExceeded) {
			acc.timeouts[name]++
			acc.times[name] = append(acc.times[name], Inf)
			return
		}
		if err != nil {
			return
		}
		acc.times[name] = append(acc.times[name], secs)
		acc.percents[name] = append(acc.percents[name], quality.KeptPercent(c.N(), g0N))
		acc.densities[name] = append(acc.densities[name], c.Density())
	}
	run("Basic", core.AlgoBasic, cfg.basicTimeout())
	run("BD", core.AlgoBulkDelete, 0)
	run("LCTC", core.AlgoLCTC, 0)
	return true
}

// mean that propagates Inf: if any run timed out, the averaged time is Inf
// (the paper plots Inf for Basic when it exceeds the hour budget).
func meanWithInf(xs []float64) float64 {
	if len(xs) == 0 {
		return Inf
	}
	s := 0.0
	for _, x := range xs {
		if x == Inf {
			return Inf
		}
		s += x
	}
	return s / float64(len(xs))
}

// figuresFromAccumulators assembles the standard (time, percentage, density)
// figure triple.
func figuresFromAccumulators(id, network, xlabel string, xs []string, accs []*pointAccumulator) []*Figure {
	mk := func(suffix, ylabel string, pick func(*pointAccumulator, string) []float64) *Figure {
		f := &Figure{
			ID:     id + suffix,
			Title:  fmt.Sprintf("%s: %s vs %s", network, ylabel, xlabel),
			XLabel: xlabel,
			X:      xs,
			YLabel: ylabel,
		}
		for _, algo := range exp1Algos {
			ys := make([]float64, len(accs))
			for i, acc := range accs {
				vals := pick(acc, algo)
				if suffix == "a" {
					ys[i] = meanWithInf(vals)
				} else if len(vals) == 0 {
					ys[i] = Inf
				} else {
					ys[i] = quality.Mean(vals)
				}
			}
			f.Series = append(f.Series, Series{Name: algo, Y: ys})
		}
		return f
	}
	return []*Figure{
		mk("a", "query time (s)", func(a *pointAccumulator, algo string) []float64 { return a.times[algo] }),
		mk("b", "kept nodes (%)", func(a *pointAccumulator, algo string) []float64 { return a.percents[algo] }),
		mk("c", "edge density", func(a *pointAccumulator, algo string) []float64 { return a.densities[algo] }),
	}
}

// RunQuerySize reproduces Figures 5 (DBLP) / 6 (Facebook): vary |Q| over
// {1, 2, 4, 8, 16} with degree-rank and inter-distance at their defaults.
func RunQuerySize(nw *gen.Network, id string, cfg Config) []*Figure {
	s := SearcherFor(nw)
	g := nw.Graph()
	rng := gen.NewRNG(cfg.seed() ^ 0x51E)
	sizes := []int{1, 2, 4, 8, 16}
	xs := make([]string, len(sizes))
	accs := make([]*pointAccumulator, len(sizes))
	for i, size := range sizes {
		xs[i] = fmt.Sprintf("%d", size)
		acc := newPointAccumulator()
		accs[i] = acc
		done := 0
		for attempt := 0; attempt < cfg.queries()*10 && done < cfg.queries(); attempt++ {
			q, err := gen.QueryByDegreeRank(g, rng, 0, 5, size) // default: top bucket-ish (Qd high)
			if err != nil {
				break
			}
			if runOneQuery(s, q, cfg, acc) {
				done++
			}
		}
		cfg.progressf("%s |Q|=%d: %d queries\n", id, size, done)
	}
	return figuresFromAccumulators(id, nw.Name, "|Q|", xs, accs)
}

// RunDegreeRank reproduces Figures 7 (DBLP) / 8 (Facebook): vary the degree
// rank bucket of the 3-vertex query over the five 20% buckets.
func RunDegreeRank(nw *gen.Network, id string, cfg Config) []*Figure {
	s := SearcherFor(nw)
	g := nw.Graph()
	rng := gen.NewRNG(cfg.seed() ^ 0xDE6)
	xs := []string{"20", "40", "60", "80", "100"}
	accs := make([]*pointAccumulator, 5)
	for b := 0; b < 5; b++ {
		acc := newPointAccumulator()
		accs[b] = acc
		done := 0
		for attempt := 0; attempt < cfg.queries()*10 && done < cfg.queries(); attempt++ {
			q, err := gen.QueryByDegreeRank(g, rng, b, 5, 3)
			if err != nil {
				break
			}
			if runOneQuery(s, q, cfg, acc) {
				done++
			}
		}
		cfg.progressf("%s bucket=%d: %d queries\n", id, b, done)
	}
	return figuresFromAccumulators(id, nw.Name, "degree rank (%)", xs, accs)
}

// RunInterDistance reproduces Figures 9 (DBLP) / 10 (Facebook): vary the
// pairwise inter-distance l of the 3-vertex query from 1 to 5.
func RunInterDistance(nw *gen.Network, id string, cfg Config) []*Figure {
	s := SearcherFor(nw)
	g := nw.Graph()
	rng := gen.NewRNG(cfg.seed() ^ 0x1D1)
	ls := []int{1, 2, 3, 4, 5}
	xs := make([]string, len(ls))
	accs := make([]*pointAccumulator, len(ls))
	for i, l := range ls {
		xs[i] = fmt.Sprintf("%d", l)
		acc := newPointAccumulator()
		accs[i] = acc
		done := 0
		for attempt := 0; attempt < cfg.queries()*10 && done < cfg.queries(); attempt++ {
			q, err := gen.QueryByInterDistance(g, rng, l, 3, 60)
			if err != nil {
				continue
			}
			if runOneQuery(s, q, cfg, acc) {
				done++
			}
		}
		cfg.progressf("%s l=%d: %d queries\n", id, l, done)
	}
	return figuresFromAccumulators(id, nw.Name, "inter-distance l", xs, accs)
}
