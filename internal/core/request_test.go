package core

import (
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/trussindex"
)

// requestTestSearcher indexes a small K5-plus-pendant graph (6 vertices).
func requestTestSearcher(t *testing.T) *Searcher {
	t.Helper()
	g := graph.FromEdges(6, [][2]int{
		{0, 1}, {0, 2}, {0, 3}, {0, 4}, {1, 2}, {1, 3}, {1, 4},
		{2, 3}, {2, 4}, {3, 4}, {4, 5},
	})
	return NewSearcher(trussindex.Build(g))
}

// TestRequestValidation table-tests every invalid request shape against its
// typed error. Before the unified entry point an out-of-range vertex could
// reach VertexTruss/BFS unchecked; now each shape fails Validate with a
// matchable sentinel — and never panics.
func TestRequestValidation(t *testing.T) {
	s := requestTestSearcher(t)
	ctx := context.Background()
	cases := []struct {
		name string
		req  Request
		want error
	}{
		{"empty query", Request{}, ErrEmptyQuery},
		{"nil query with params", Request{Algo: AlgoBasic, K: 3}, ErrEmptyQuery},
		{"negative vertex", Request{Q: []int{0, -1}}, ErrVertexOutOfRange},
		{"vertex == n", Request{Q: []int{6}}, ErrVertexOutOfRange},
		{"vertex far out of range", Request{Q: []int{1 << 30}}, ErrVertexOutOfRange},
		{"too many query vertices", Request{Q: make([]int, maxQueryVertices+1)}, ErrBadParam},
		{"unknown algo", Request{Q: []int{0}, Algo: algoEnd}, ErrBadParam},
		{"unknown algo high bits", Request{Q: []int{0}, Algo: Algo(200)}, ErrBadParam},
		{"unknown distance mode", Request{Q: []int{0}, DistanceMode: distanceModeEnd}, ErrBadParam},
		{"negative K", Request{Q: []int{0}, K: -1}, ErrBadParam},
		{"negative Eta", Request{Q: []int{0}, Eta: -7}, ErrBadParam},
		{"negative Gamma", Request{Q: []int{0}, Gamma: -1}, ErrBadParam},
		{"NaN Gamma", Request{Q: []int{0}, Gamma: math.NaN()}, ErrBadParam},
		{"Inf Gamma", Request{Q: []int{0}, Gamma: math.Inf(1)}, ErrBadParam},
		{"Gamma under DistHop", Request{Q: []int{0}, DistanceMode: DistHop, Gamma: 2}, ErrBadParam},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := s.Search(ctx, tc.req)
			if !errors.Is(err, tc.want) {
				t.Fatalf("Search(%+v) err = %v, want errors.Is(..., %v)", tc.req, err, tc.want)
			}
			if res != nil {
				t.Fatalf("Search returned a result alongside error %v", err)
			}
		})
	}
}

// TestRequestValidShapes locks in that the zero-value-defaulted shapes all
// pass validation and produce verified communities for every algorithm.
func TestRequestValidShapes(t *testing.T) {
	s := requestTestSearcher(t)
	ctx := context.Background()
	for _, req := range []Request{
		{Q: []int{0, 1}, Verify: true},                            // LCTC defaults
		{Q: []int{0, 1}, Algo: AlgoBasic, Verify: true},           // Basic
		{Q: []int{0, 1}, Algo: AlgoBulkDelete, Verify: true},      // BulkDelete
		{Q: []int{0, 1}, Algo: AlgoTrussOnly, Verify: true},       // TrussOnly
		{Q: []int{0, 1}, K: 3, Verify: true},                      // fixed k
		{Q: []int{0, 1}, Eta: 50, Gamma: 5, Verify: true},         // tuned LCTC
		{Q: []int{0, 1}, DistanceMode: DistHop, Verify: true},     // hop metric
		{Q: []int{0, 0, 1}, Algo: AlgoBasic, Verify: true},        // duplicate vertices
		{Q: []int{0, 1}, Algo: AlgoTrussOnly, K: 1, Verify: true}, // k<2 clamps to 2
	} {
		res, err := s.Search(ctx, req)
		if err != nil {
			t.Fatalf("Search(%+v): %v", req, err)
		}
		if res.K < 2 || res.N() == 0 {
			t.Fatalf("Search(%+v): degenerate community k=%d n=%d", req, res.K, res.N())
		}
		if res.Stats.Algo != req.Algo || res.Stats.Total <= 0 {
			t.Fatalf("Search(%+v): stats not filled: %+v", req, res.Stats)
		}
	}
}

// TestParseAlgo pins the wire spellings.
func TestParseAlgo(t *testing.T) {
	for spelling, want := range map[string]Algo{
		"": AlgoLCTC, "lctc": AlgoLCTC, "basic": AlgoBasic,
		"bd": AlgoBulkDelete, "bulk": AlgoBulkDelete, "bulkdelete": AlgoBulkDelete,
		"truss": AlgoTrussOnly,
	} {
		got, err := ParseAlgo(spelling)
		if err != nil || got != want {
			t.Errorf("ParseAlgo(%q) = %v, %v; want %v", spelling, got, err, want)
		}
	}
	// The models /query once served are unknown spellings like any other.
	for _, spelling := range []string{"nope", "dtruss", "directed", "prob", "probtruss", "mdc", "qdc"} {
		if _, err := ParseAlgo(spelling); !errors.Is(err, ErrBadParam) {
			t.Errorf("ParseAlgo(%q) err = %v, want ErrBadParam", spelling, err)
		}
	}
	if names := AlgoNames(); len(names) != int(algoEnd) {
		t.Fatalf("AlgoNames lists %d algos, registry has %d", len(names), algoEnd)
	}
}

// TestSearchBatch checks batch semantics: one workspace across the batch,
// per-item errors that do not abort the rest, and results matching
// independent Search calls.
func TestSearchBatch(t *testing.T) {
	s := requestTestSearcher(t)
	ctx := context.Background()
	reqs := []Request{
		{Q: []int{0, 1}},                      // ok
		{Q: []int{}},                          // ErrEmptyQuery, batch continues
		{Q: []int{0, 1}, Algo: AlgoBasic},     // ok
		{Q: []int{99}},                        // ErrVertexOutOfRange, batch continues
		{Q: []int{0, 5}, Algo: AlgoTrussOnly}, // ok (pendant vertex, k=2)
	}
	items, err := s.SearchBatch(ctx, reqs)
	if err != nil {
		t.Fatalf("batch error: %v", err)
	}
	if len(items) != len(reqs) {
		t.Fatalf("got %d items for %d requests", len(items), len(reqs))
	}
	if !errors.Is(items[1].Err, ErrEmptyQuery) || !errors.Is(items[3].Err, ErrVertexOutOfRange) {
		t.Fatalf("item errors = %v, %v", items[1].Err, items[3].Err)
	}
	for _, i := range []int{0, 2, 4} {
		if items[i].Err != nil || items[i].Result == nil {
			t.Fatalf("item %d failed: %v", i, items[i].Err)
		}
		solo, err := s.Search(ctx, reqs[i])
		if err != nil {
			t.Fatal(err)
		}
		if got := items[i].Result; got.N() != solo.N() || got.M() != solo.M() || got.K != solo.K {
			t.Fatalf("item %d (n=%d m=%d k=%d) diverged from solo Search (n=%d m=%d k=%d)",
				i, got.N(), got.M(), got.K, solo.N(), solo.M(), solo.K)
		}
	}

	// A cancelled context fails the whole remaining batch with the ctx error.
	cctx, cancel := context.WithCancel(ctx)
	cancel()
	items, err = s.SearchBatch(cctx, reqs)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled batch err = %v", err)
	}
	for i, it := range items {
		if !errors.Is(it.Err, context.Canceled) {
			t.Fatalf("item %d err = %v, want context.Canceled", i, it.Err)
		}
	}

	// Empty batch: no workspace churn, no error.
	if items, err = s.SearchBatch(ctx, nil); err != nil || len(items) != 0 {
		t.Fatalf("empty batch: %v, %d items", err, len(items))
	}
}
