package exp

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/quality"
)

// lctcParamSweep measures LCTC's community size, F1 score and query time
// over a sweep of one request dimension, using ground-truth queries
// (Figures 15 and 16 share this scaffolding). mkReq sets the swept field of
// an LCTC request for the i-th x value.
func lctcParamSweep(nw *gen.Network, id, xlabel string, xs []string,
	mkReq func(i int, q []int) core.Request, cfg Config) []*Figure {
	s := SearcherFor(nw)
	rng := gen.NewRNG(cfg.seed() ^ 0x9A12)
	queries := gen.QueriesFromGroundTruth(rng, nw.GroundTruth(), cfg.queries(), 2, 8)
	sizes := make([]float64, len(xs))
	f1s := make([]float64, len(xs))
	times := make([]float64, len(xs))
	for i := range xs {
		var vs, fs, ts []float64
		for _, gq := range queries {
			var c *core.Community
			secs, err := timed(func() error {
				var e error
				c, e = search(s, mkReq(i, gq.Q), 0)
				return e
			})
			if err != nil {
				continue
			}
			vs = append(vs, float64(c.N()))
			fs = append(fs, quality.F1(c.Vertices(), gq.Community))
			ts = append(ts, secs)
		}
		cfg.progressf("%s %s=%s: %d queries\n", id, xlabel, xs[i], len(vs))
		sizes[i] = quality.Mean(vs)
		f1s[i] = quality.Mean(fs)
		times[i] = quality.Mean(ts)
	}
	title := func(y string) string { return fmt.Sprintf("%s: LCTC %s vs %s", nw.Name, y, xlabel) }
	return []*Figure{
		{ID: id + "a", Title: title("|V|"), XLabel: xlabel, X: xs, YLabel: "community |V|",
			Series: []Series{{Name: "LCTC", Y: sizes}}},
		{ID: id + "b", Title: title("F1"), XLabel: xlabel, X: xs, YLabel: "F1 score",
			Series: []Series{{Name: "LCTC", Y: f1s}}},
		{ID: id + "c", Title: title("time"), XLabel: xlabel, X: xs, YLabel: "query time (s)",
			Series: []Series{{Name: "LCTC", Y: times}}},
	}
}

// RunVaryEta reproduces Figure 15 (DBLP): LCTC under η ∈ {100..2000}.
func RunVaryEta(nw *gen.Network, cfg Config) []*Figure {
	etas := []int{100, 500, 1000, 1500, 2000}
	xs := make([]string, len(etas))
	for i, e := range etas {
		xs[i] = fmt.Sprintf("%d", e)
	}
	return lctcParamSweep(nw, "Fig15", "eta", xs,
		func(i int, q []int) core.Request { return core.Request{Q: q, Eta: etas[i]} }, cfg)
}

// RunVaryGamma reproduces Figure 16 (DBLP): LCTC under γ ∈ {1,3,5,7,9}.
func RunVaryGamma(nw *gen.Network, cfg Config) []*Figure {
	gammas := []float64{1, 3, 5, 7, 9}
	xs := make([]string, len(gammas))
	for i, g := range gammas {
		xs[i] = fmt.Sprintf("%g", g)
	}
	return lctcParamSweep(nw, "Fig16", "gamma", xs,
		func(i int, q []int) core.Request { return core.Request{Q: q, Gamma: gammas[i]} }, cfg)
}
