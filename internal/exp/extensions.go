package exp

import (
	"fmt"
	"time"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/truss"
)

// ExtensionTable benchmarks the dynamic truss maintenance (the [17]
// machinery, §8 "networks with interactions"; truss.Incremental, the one the
// server runs) against full recomputation: mean time per edge update on the
// Facebook analogue.
func ExtensionTable(cfg Config) *Table {
	nw, err := gen.NetworkByName("facebook")
	if err != nil {
		return &Table{ID: "Ext", Title: err.Error()}
	}
	g := nw.Graph()
	edges := g.EdgeKeys()
	rng := gen.NewRNG(cfg.seed() ^ 0xE87)
	updates := 40
	cfg.progressf("Ext: %d updates on %s\n", updates, nw.Name)

	// Incremental: delete + reinsert random edges.
	inc := truss.NewIncremental(g)
	start := time.Now()
	for i := 0; i < updates; i++ {
		e := edges[rng.Intn(len(edges))]
		u, v := e.Endpoints()
		inc.DeleteEdge(u, v)
		inc.InsertEdge(u, v)
	}
	incPer := time.Since(start).Seconds() / float64(2*updates)

	// Full recomputation for the same workload shape (fewer rounds, scaled).
	mu := graph.NewMutable(g, nil)
	rebuilds := 4
	start = time.Now()
	for i := 0; i < rebuilds; i++ {
		e := edges[rng.Intn(len(edges))]
		u, v := e.Endpoints()
		mu.DeleteEdge(u, v)
		truss.Decompose(mu.Freeze())
		mu.AddEdge(u, v)
		truss.Decompose(mu.Freeze())
	}
	rebuildPer := time.Since(start).Seconds() / float64(2*rebuilds)

	speedup := 0.0
	if incPer > 0 {
		speedup = rebuildPer / incPer
	}
	return &Table{
		ID:     "Ext",
		Title:  "Dynamic truss maintenance vs full recomputation (facebook analogue)",
		Header: []string{"strategy", "sec / update", "speedup"},
		Rows: [][]string{
			{"incremental", fmt.Sprintf("%.5f", incPer), fmt.Sprintf("%.1fx", speedup)},
			{"full recomputation", fmt.Sprintf("%.5f", rebuildPer), "1x"},
		},
	}
}
