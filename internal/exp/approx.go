package exp

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/quality"
)

// RunDiamApprox reproduces Figure 13 (Facebook): the average diameter and
// trussness of the communities found by Basic, BD and LCTC as the query
// inter-distance l varies, against the LB-OPT / UB-OPT diameter bounds
// derived from Basic's query distance (Lemma 2).
func RunDiamApprox(nw *gen.Network, cfg Config) []*Figure {
	s := SearcherFor(nw)
	g := nw.Graph()
	rng := gen.NewRNG(cfg.seed() ^ 0xD1A)
	ls := []int{1, 2, 3, 4, 5}
	xs := make([]string, len(ls))
	diam := map[string][]float64{}
	trussn := map[string][]float64{}
	algos := []string{"Basic", "BD", "LCTC"}
	for i, l := range ls {
		xs[i] = fmt.Sprintf("%d", l)
		perDiam := map[string][]float64{}
		perTruss := map[string][]float64{}
		var lbs, ubs []float64
		done := 0
		for attempt := 0; attempt < cfg.queries()*10 && done < cfg.queries(); attempt++ {
			q, err := gen.QueryByInterDistance(g, rng, l, 3, 60)
			if err != nil {
				continue
			}
			basic, err := search(s, core.Request{Q: q, Algo: core.AlgoBasic}, cfg.basicTimeout())
			if err != nil {
				continue
			}
			bd, err := search(s, core.Request{Q: q, Algo: core.AlgoBulkDelete}, 0)
			if err != nil {
				continue
			}
			lctc, err := search(s, core.Request{Q: q}, 0)
			if err != nil {
				continue
			}
			done++
			perDiam["Basic"] = append(perDiam["Basic"], float64(basic.Diameter()))
			perDiam["BD"] = append(perDiam["BD"], float64(bd.Diameter()))
			perDiam["LCTC"] = append(perDiam["LCTC"], float64(lctc.Diameter()))
			perTruss["Basic"] = append(perTruss["Basic"], float64(basic.K))
			perTruss["BD"] = append(perTruss["BD"], float64(bd.K))
			perTruss["LCTC"] = append(perTruss["LCTC"], float64(lctc.K))
			// LB-OPT: the smallest query distance achieved (Basic is
			// query-distance optimal by Lemma 5); UB-OPT = 2x (Lemma 2).
			lbs = append(lbs, float64(basic.QueryDist()))
			ubs = append(ubs, float64(2*basic.QueryDist()))
		}
		cfg.progressf("Fig13 l=%d: %d queries\n", l, done)
		for _, a := range algos {
			diam[a] = append(diam[a], quality.Mean(perDiam[a]))
			trussn[a] = append(trussn[a], quality.Mean(perTruss[a]))
		}
		diam["LB-OPT"] = append(diam["LB-OPT"], quality.Mean(lbs))
		diam["UB-OPT"] = append(diam["UB-OPT"], quality.Mean(ubs))
	}
	fd := &Figure{ID: "Fig13a", Title: nw.Name + ": community diameter vs inter-distance",
		XLabel: "l", X: xs, YLabel: "diameter"}
	for _, name := range []string{"Basic", "BD", "LCTC", "LB-OPT", "UB-OPT"} {
		fd.Series = append(fd.Series, Series{Name: name, Y: diam[name]})
	}
	ft := &Figure{ID: "Fig13b", Title: nw.Name + ": community trussness vs inter-distance",
		XLabel: "l", X: xs, YLabel: "trussness"}
	for _, name := range algos {
		ft.Series = append(ft.Series, Series{Name: name, Y: trussn[name]})
	}
	return []*Figure{fd, ft}
}

// RunVaryK reproduces Figure 14 (Facebook): the diameter of the LCTC
// community when the trussness is fixed at k ∈ {2,4,6,8,max} rather than
// maximized, against the LB-OPT bound at each k.
func RunVaryK(nw *gen.Network, cfg Config) *Figure {
	s := SearcherFor(nw)
	g := nw.Graph()
	rng := gen.NewRNG(cfg.seed() ^ 0x14)
	ks := []int32{2, 4, 6, 8, 0} // 0 = max
	xs := []string{"2", "4", "6", "8", "max"}
	// One fixed query batch reused across every k, per the paper's setup.
	var queries [][]int
	for attempt := 0; attempt < cfg.queries()*10 && len(queries) < cfg.queries(); attempt++ {
		q, err := gen.QueryByInterDistance(g, rng, 2, 3, 60)
		if err != nil {
			continue
		}
		if _, err := search(s, core.Request{Q: q}, 0); err != nil {
			continue
		}
		queries = append(queries, q)
	}
	var lctcD, lbD []float64
	for _, k := range ks {
		var ds, lbs []float64
		for _, q := range queries {
			c, err := search(s, core.Request{Q: q, K: k}, 0)
			if err != nil {
				continue
			}
			ds = append(ds, float64(c.Diameter()))
			lbs = append(lbs, float64(c.QueryDist()))
		}
		cfg.progressf("Fig14 k=%d: %d queries\n", k, len(ds))
		lctcD = append(lctcD, quality.Mean(ds))
		lbD = append(lbD, quality.Mean(lbs))
	}
	return &Figure{
		ID: "Fig14", Title: nw.Name + ": diameter vs fixed maximum trussness k",
		XLabel: "k", X: xs, YLabel: "diameter",
		Series: []Series{{Name: "LCTC", Y: lctcD}, {Name: "LB-OPT", Y: lbD}},
	}
}
