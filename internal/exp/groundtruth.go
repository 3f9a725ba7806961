package exp

import (
	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/quality"
)

// gtNetworks are the five ground-truth networks of Exp-3 (all but Facebook).
func gtNetworks() []*gen.Network {
	var out []*gen.Network
	for _, nw := range gen.SharedNetworks() {
		if nw.HasGroundTruth {
			out = append(out, nw)
		}
	}
	return out
}

// gtMethods are the four community models compared in Figure 12.
var gtMethods = []string{"MDC", "QDC", "Truss", "LCTC"}

// RunGroundTruth reproduces Figure 12: F1 score, query time, and
// detected-community size (|V|, |E|) for MDC, QDC, Truss and LCTC over the
// five networks with ground truth, using queries sampled from ground-truth
// communities (sizes 1..16 mirroring the paper's 1,000 random query sets).
func RunGroundTruth(cfg Config, networks []*gen.Network) []*Figure {
	if networks == nil {
		networks = gtNetworks()
	}
	xs := make([]string, len(networks))
	f1 := map[string][]float64{}
	times := map[string][]float64{}
	sizeV := map[string][]float64{}
	sizeE := map[string][]float64{}
	for i, nw := range networks {
		xs[i] = nw.Name
		cfg.progressf("Fig12: %s\n", nw.Name)
		s := SearcherFor(nw)
		g := nw.Graph()
		rng := gen.NewRNG(cfg.seed() ^ uint64(i)<<8 ^ 0xF12)
		queries := gen.QueriesFromGroundTruth(rng, nw.GroundTruth(), cfg.queries(), 1, 16)
		acc := map[string]*struct {
			f1s, ts, vs, es []float64
		}{}
		for _, m := range gtMethods {
			acc[m] = &struct{ f1s, ts, vs, es []float64 }{}
		}
		for _, gq := range queries {
			// MDC baseline.
			runBaseline := func(name string, run func() (*baseline.Result, error)) {
				var r *baseline.Result
				secs, err := timed(func() error {
					var e error
					r, e = run()
					return e
				})
				if err != nil {
					return
				}
				a := acc[name]
				a.f1s = append(a.f1s, quality.F1(r.Vertices, gq.Community))
				a.ts = append(a.ts, secs)
				a.vs = append(a.vs, float64(r.N()))
				a.es = append(a.es, float64(r.M()))
			}
			// MDC runs under the Cocktail Party model's fixed distance and
			// size constraints — the rigidity the paper blames for its low
			// F1 ("MDC does not perform well due to the fixed distance and
			// size constraints").
			runBaseline("MDC", func() (*baseline.Result, error) {
				return baseline.MDC(g, gq.Q, &baseline.MDCOptions{DistBound: 2, SizeBound: 10})
			})
			runBaseline("QDC", func() (*baseline.Result, error) { return baseline.QDC(g, gq.Q, nil) })
			runCore := func(name string, algo core.Algo) {
				var c *core.Community
				secs, err := timed(func() error {
					var e error
					c, e = search(s, core.Request{Q: gq.Q, Algo: algo}, 0)
					return e
				})
				if err != nil {
					return
				}
				a := acc[name]
				a.f1s = append(a.f1s, quality.F1(c.Vertices(), gq.Community))
				a.ts = append(a.ts, secs)
				a.vs = append(a.vs, float64(c.N()))
				a.es = append(a.es, float64(c.M()))
			}
			runCore("Truss", core.AlgoTrussOnly)
			runCore("LCTC", core.AlgoLCTC)
		}
		for _, m := range gtMethods {
			f1[m] = append(f1[m], quality.Mean(acc[m].f1s))
			times[m] = append(times[m], quality.Mean(acc[m].ts))
			sizeV[m] = append(sizeV[m], quality.Mean(acc[m].vs))
			sizeE[m] = append(sizeE[m], quality.Mean(acc[m].es))
		}
	}
	mkFig := func(id, ylabel string, data map[string][]float64, methods []string) *Figure {
		f := &Figure{ID: id, Title: "Quality on networks with ground-truth communities",
			XLabel: "network", X: xs, YLabel: ylabel}
		for _, m := range methods {
			f.Series = append(f.Series, Series{Name: m, Y: data[m]})
		}
		return f
	}
	reduction := &Figure{ID: "Fig12c", Title: "Detected community size: Truss vs LCTC",
		XLabel: "network", X: xs, YLabel: "avg count"}
	for _, m := range []string{"Truss", "LCTC"} {
		reduction.Series = append(reduction.Series,
			Series{Name: "|V|-" + m, Y: sizeV[m]},
			Series{Name: "|E|-" + m, Y: sizeE[m]})
	}
	return []*Figure{
		mkFig("Fig12a", "F1 score", f1, gtMethods),
		mkFig("Fig12b", "query time (s)", times, gtMethods),
		reduction,
	}
}
