package exp

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/quality"
	"repro/internal/steiner"
)

// RunAblationSteiner quantifies the §5.2 design decision of seeding LCTC
// with a truss-distance Steiner tree instead of a hop-count one: it compares
// the trussness and diameter of LCTC communities under γ=3 (truss distance)
// versus γ=0 (plain hops), plus the min trussness of the seed trees
// themselves.
func RunAblationSteiner(nw *gen.Network, cfg Config) *Figure {
	s := SearcherFor(nw)
	ix := IndexFor(nw)
	g := nw.Graph()
	rng := gen.NewRNG(cfg.seed() ^ 0xAB1)
	var kTruss, kHop, treeTruss, treeHop []float64
	done := 0
	for attempt := 0; attempt < cfg.queries()*10 && done < cfg.queries(); attempt++ {
		q, err := gen.QueryByInterDistance(g, rng, 2, 3, 60)
		if err != nil {
			continue
		}
		cTruss, err1 := search(s, core.Request{Q: q, Gamma: 3}, 0)
		cHop, err2 := search(s, core.Request{Q: q, DistanceMode: core.DistHop}, 0)
		t1, err3 := steiner.Build(ix, q, 3)
		t2, err4 := steiner.Build(ix, q, 0)
		if err1 != nil || err2 != nil || err3 != nil || err4 != nil {
			continue
		}
		done++
		kTruss = append(kTruss, float64(cTruss.K))
		kHop = append(kHop, float64(cHop.K))
		treeTruss = append(treeTruss, float64(t1.MinTruss))
		treeHop = append(treeHop, float64(t2.MinTruss))
	}
	cfg.progressf("AblationSteiner: %d queries\n", done)
	return &Figure{
		ID:     "AblSteiner",
		Title:  nw.Name + ": truss-distance vs hop-distance Steiner seeding",
		XLabel: "metric", X: []string{"community k", "seed tree min truss"},
		YLabel: "avg trussness",
		Series: []Series{
			{Name: "truss-dist (γ=3)", Y: []float64{quality.Mean(kTruss), quality.Mean(treeTruss)}},
			{Name: "hop-dist (γ=0)", Y: []float64{quality.Mean(kHop), quality.Mean(treeHop)}},
		},
	}
}

// RunAblationBulkRule compares the deletion rules of §5: BD's aggressive
// L = {dist >= d-1} versus LCTC's exact L' = {dist >= d}, measured by the
// achieved diameter and the iteration speed proxy (query time).
func RunAblationBulkRule(nw *gen.Network, cfg Config) *Figure {
	s := SearcherFor(nw)
	g := nw.Graph()
	rng := gen.NewRNG(cfg.seed() ^ 0xAB2)
	var diamBD, diamBasic, timeBD, timeBasic []float64
	done := 0
	for attempt := 0; attempt < cfg.queries()*10 && done < cfg.queries(); attempt++ {
		q, err := gen.QueryByInterDistance(g, rng, 2, 3, 60)
		if err != nil {
			continue
		}
		var bd, basic *core.Community
		tBD, err1 := timed(func() error {
			var e error
			bd, e = search(s, core.Request{Q: q, Algo: core.AlgoBulkDelete}, 0)
			return e
		})
		tBasic, err2 := timed(func() error {
			var e error
			basic, e = search(s, core.Request{Q: q, Algo: core.AlgoBasic}, cfg.basicTimeout())
			return e
		})
		if err1 != nil || err2 != nil {
			continue
		}
		done++
		diamBD = append(diamBD, float64(bd.Diameter()))
		diamBasic = append(diamBasic, float64(basic.Diameter()))
		timeBD = append(timeBD, tBD)
		timeBasic = append(timeBasic, tBasic)
	}
	cfg.progressf("AblationBulkRule: %d queries\n", done)
	return &Figure{
		ID:     "AblBulk",
		Title:  fmt.Sprintf("%s: bulk rule L (dist>=d-1) vs single deletion", nw.Name),
		XLabel: "metric", X: []string{"avg diameter", "avg time (s)"},
		YLabel: "value",
		Series: []Series{
			{Name: "BD (bulk)", Y: []float64{quality.Mean(diamBD), quality.Mean(timeBD)}},
			{Name: "Basic (single)", Y: []float64{quality.Mean(diamBasic), quality.Mean(timeBasic)}},
		},
	}
}
