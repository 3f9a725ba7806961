package admit

import (
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/trussindex"
)

// defaultCostNS is the starting ns-per-unit before any query has been
// observed: deliberately small so an uncalibrated gate over-admits rather
// than over-sheds (the first few queries calibrate it).
const defaultCostNS = 50

// Estimator is the statistics-free greedy cost model of the admission
// layer. It assigns each request abstract cost units from structure the
// index already has — query-vertex degrees, the trussness-level count, the
// algorithm's peel behavior — and converts units to wall time through a
// single scale factor calibrated online (EWMA over observed query cost).
// No histograms, no per-query-class statistics: like a greedy planner, it
// only needs to rank requests and produce a usable start-time estimate,
// not predict latency exactly.
type Estimator struct {
	// nsPerUnit is the EWMA-calibrated wall-nanoseconds per cost unit.
	nsPerUnit atomic.Int64

	// Cumulative calibration-error accounting: for every observed query,
	// predictedNS adds the estimate the admission decision was priced at
	// (units × the scale in force at completion), actualNS the measured
	// execution time, and absErrNS the absolute difference. The ratio
	// absErrNS/actualNS is the estimator's observable relative error.
	predictedNS atomic.Int64
	actualNS    atomic.Int64
	absErrNS    atomic.Int64
	observed    atomic.Int64
}

// NewEstimator builds an estimator seeded with initialNS nanoseconds per
// cost unit (0 = default).
func NewEstimator(initialNS int64) *Estimator {
	e := &Estimator{}
	if initialNS <= 0 {
		initialNS = defaultCostNS
	}
	e.nsPerUnit.Store(initialNS)
	return e
}

// Units estimates the abstract cost of req against ix. The drivers, in the
// spirit of a statistics-free greedy planner:
//
//   - Σ degree(q): FindG0 / the Steiner seed consume the query vertices'
//     trussness-sorted arc runs, so their degrees bound the seed frontier.
//   - the distinct-trussness level count: FindG0 descends levels until the
//     query connects, so a deep threshold ladder multiplies seed work.
//   - the algorithm's peel factor: Basic re-peels one vertex per round
//     (quadratic-ish), BulkDelete batches rounds, LCTC peels only its
//     η-bounded expansion, TrussOnly never peels.
//
// Out-of-range query vertices contribute nothing; validation rejects such
// requests separately, and the estimator must never panic on unvalidated
// input.
func (e *Estimator) Units(ix *trussindex.Index, req core.Request) int64 {
	g := ix.Graph()
	n := g.N()
	var degSum int64
	for _, v := range req.Q {
		if v >= 0 && v < n {
			degSum += int64(g.Degree(v))
		}
	}
	levels := int64(len(ix.ThresholdsShared()))
	if levels == 0 {
		levels = 1
	}
	// Seed cost: the level descent touches the query arcs once per level in
	// the worst case; damp the multiplier so typical early-exit queries are
	// not wildly over-estimated.
	units := int64(64) + degSum + degSum*levels/4
	switch req.Algo {
	case core.AlgoBasic:
		units += 32 * degSum
	case core.AlgoBulkDelete:
		units += 4 * degSum
	case core.AlgoLCTC:
		eta := req.Eta
		if eta <= 0 {
			eta = 1000 // core's default expansion budget
		}
		// The expansion cannot outgrow the graph, so neither may its price:
		// a client-supplied η is otherwise a way to book hours of backlog.
		units += int64(min(eta, n))
	}
	return units
}

// Duration converts cost units into an estimated wall-clock duration using
// the calibrated scale.
func (e *Estimator) Duration(units int64) time.Duration {
	return time.Duration(units * e.nsPerUnit.Load())
}

// Observe feeds one completed query back into the calibration: actual is
// the measured execution time (excluding queue wait) of a query estimated
// at units. The scale moves by 1/8 of the error per observation — quick to
// converge after a workload shift, too damped for one outlier to swing
// admission decisions. Lost updates under concurrent Observe calls are
// acceptable: this is a heuristic scale, not an invariant.
func (e *Estimator) Observe(units int64, actual time.Duration) {
	if units <= 0 || actual <= 0 {
		return
	}
	sample := actual.Nanoseconds() / units
	if sample < 1 {
		sample = 1
	}
	old := e.nsPerUnit.Load()
	e.nsPerUnit.Store(old + (sample-old)/8)

	predicted := units * old
	errNS := predicted - actual.Nanoseconds()
	if errNS < 0 {
		errNS = -errNS
	}
	e.predictedNS.Add(predicted)
	e.actualNS.Add(actual.Nanoseconds())
	e.absErrNS.Add(errNS)
	e.observed.Add(1)
}

// ErrorStats returns the cumulative calibration-error counters: total
// predicted and actual nanoseconds, total absolute error, and the number of
// observations. All monotone, safe for scrape-time func metrics.
func (e *Estimator) ErrorStats() (predictedNS, actualNS, absErrNS, observations int64) {
	return e.predictedNS.Load(), e.actualNS.Load(), e.absErrNS.Load(), e.observed.Load()
}

// CostNS returns the current calibrated ns-per-unit scale (a /stats gauge).
func (e *Estimator) CostNS() int64 { return e.nsPerUnit.Load() }
