package admit

import (
	"math"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/truss"
	"repro/internal/trussindex"
)

func estIndex(t *testing.T) *trussindex.Index {
	t.Helper()
	// Two triangles sharing an edge plus a pendant: enough structure for
	// nonzero degrees and thresholds.
	g := graph.FromEdges(6, [][2]int{{0, 1}, {1, 2}, {0, 2}, {1, 3}, {2, 3}, {3, 4}})
	return trussindex.BuildFromDecomposition(g, truss.Decompose(g))
}

func TestEstimatorUnitsRankAlgorithms(t *testing.T) {
	ix := estIndex(t)
	q := []int{1, 2}
	truss := NewEstimator(0).Units(ix, core.Request{Q: q, Algo: core.AlgoTrussOnly})
	lctc := NewEstimator(0).Units(ix, core.Request{Q: q, Algo: core.AlgoLCTC})
	bd := NewEstimator(0).Units(ix, core.Request{Q: q, Algo: core.AlgoBulkDelete})
	basic := NewEstimator(0).Units(ix, core.Request{Q: q, Algo: core.AlgoBasic})
	if !(basic > bd && bd > truss) {
		t.Fatalf("peel factors not ranked: basic=%d bd=%d truss=%d", basic, bd, truss)
	}
	if lctc <= truss {
		t.Fatalf("LCTC should carry its eta budget: lctc=%d truss=%d", lctc, truss)
	}
	// Higher-degree query sets cost more.
	lo := NewEstimator(0).Units(ix, core.Request{Q: []int{4}})
	hi := NewEstimator(0).Units(ix, core.Request{Q: []int{1, 2, 3}})
	if hi <= lo {
		t.Fatalf("degree sum not reflected: hi=%d lo=%d", hi, lo)
	}
}

// TestEstimatorUnvalidatedInput: the estimator runs before validation (the
// serve layer estimates against an unref'd snapshot), so out-of-range
// vertices must contribute nothing instead of panicking.
func TestEstimatorUnvalidatedInput(t *testing.T) {
	ix := estIndex(t)
	e := NewEstimator(0)
	in := e.Units(ix, core.Request{Q: []int{1}})
	out := e.Units(ix, core.Request{Q: []int{1, -5, 99999}})
	if in != out {
		t.Fatalf("out-of-range vertices changed the estimate: %d vs %d", in, out)
	}
}

// TestEstimatorClampsEta: a client-supplied η is not validated against the
// graph (only negatives are rejected), and the expansion can never exceed
// |V|, so the estimate must stop growing there — {"eta": 1e12} used to be
// priced at hours, shedding every deadline-carrying request queued behind
// it and dragging the calibration, and η >= 1<<58 overflowed outright.
func TestEstimatorClampsEta(t *testing.T) {
	ix := estIndex(t)
	n := ix.Graph().N()
	e := NewEstimator(0)
	units := func(eta int) int64 { return e.Units(ix, core.Request{Q: []int{1, 2}, Eta: eta}) }
	atN := units(n)
	for _, tc := range []struct {
		name string
		eta  int
		want int64
	}{
		{"default", 0, atN}, // 1000 > |V| = 6
		{"1000", 1000, atN},
		{"N-1", n - 1, atN - 1},
		{"N", n, atN},
		{"N+1", n + 1, atN},
		{"1e12", 1e12, atN},
		{"MaxInt", math.MaxInt, atN},
	} {
		got := units(tc.eta)
		if got != tc.want {
			t.Errorf("Eta %s: Units = %d, want %d", tc.name, got, tc.want)
		}
		if d := e.Duration(got); d <= 0 || d > time.Second {
			t.Errorf("Eta %s: Duration = %v, want positive and small", tc.name, d)
		}
	}
}

func TestEstimatorCalibration(t *testing.T) {
	e := NewEstimator(0)
	if e.CostNS() != defaultCostNS {
		t.Fatalf("seed %d, want %d", e.CostNS(), defaultCostNS)
	}
	// Feed a consistent 1000ns-per-unit workload; the EWMA (step 1/8) must
	// converge near it and Duration must scale with it.
	for i := 0; i < 100; i++ {
		e.Observe(1000, time.Millisecond)
	}
	if got := e.CostNS(); got < 900 || got > 1100 {
		t.Fatalf("calibrated ns/unit %d, want ~1000", got)
	}
	if d := e.Duration(2000); d < 1800*time.Microsecond || d > 2200*time.Microsecond {
		t.Fatalf("Duration(2000) = %v, want ~2ms", d)
	}
	// Garbage observations are ignored.
	before := e.CostNS()
	e.Observe(0, time.Second)
	e.Observe(100, -time.Second)
	if e.CostNS() != before {
		t.Fatal("degenerate observations moved the scale")
	}
}
