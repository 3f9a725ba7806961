package exp

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/trussindex"
)

// CaseStudyResult reproduces Figure 11: the raw maximal k-truss G0 versus
// the LCTC community for the four database query authors on the synthetic
// collaboration network.
type CaseStudyResult struct {
	QueryNames   []string
	G0           *core.Community
	LCTC         *core.Community
	MemberNames  []string // LCTC community member names, sorted
	G0Diameter   int
	LCTCDiameter int
}

// CaseStudy runs the Figure 11 experiment.
func CaseStudy(seed uint64) (*CaseStudyResult, error) {
	cn := gen.Collaboration(seed)
	ix := trussindex.Build(cn.G)
	s := core.NewSearcher(ix)
	q := cn.QueryAuthors
	g0, err := search(s, core.Request{Q: q, Algo: core.AlgoTrussOnly}, 0)
	if err != nil {
		return nil, fmt.Errorf("exp: case study G0: %w", err)
	}
	lctc, err := search(s, core.Request{Q: q}, 0)
	if err != nil {
		return nil, fmt.Errorf("exp: case study LCTC: %w", err)
	}
	res := &CaseStudyResult{
		G0:           g0,
		LCTC:         lctc,
		G0Diameter:   g0.Diameter(),
		LCTCDiameter: lctc.Diameter(),
	}
	for _, v := range q {
		res.QueryNames = append(res.QueryNames, cn.NameOf(v))
	}
	for _, v := range lctc.Vertices() {
		res.MemberNames = append(res.MemberNames, cn.NameOf(v))
	}
	sort.Strings(res.MemberNames)
	return res, nil
}

// Table renders the case study as a comparison table.
func (r *CaseStudyResult) Table() *Table {
	return &Table{
		ID:     "Fig11",
		Title:  "Case study: G0 vs LCTC for the four query authors",
		Header: []string{"", "nodes", "edges", "density", "diameter", "trussness"},
		Rows: [][]string{
			{"G0 (Truss)",
				fmt.Sprintf("%d", r.G0.N()), fmt.Sprintf("%d", r.G0.M()),
				fmt.Sprintf("%.2f", r.G0.Density()), fmt.Sprintf("%d", r.G0Diameter),
				fmt.Sprintf("%d", r.G0.K)},
			{"LCTC",
				fmt.Sprintf("%d", r.LCTC.N()), fmt.Sprintf("%d", r.LCTC.M()),
				fmt.Sprintf("%.2f", r.LCTC.Density()), fmt.Sprintf("%d", r.LCTCDiameter),
				fmt.Sprintf("%d", r.LCTC.K)},
		},
	}
}
