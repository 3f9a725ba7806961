package main

import (
	"math"
	"sort"
)

// percentile returns the p-quantile (0 <= p <= 1) of sorted by the
// nearest-rank rule. Failed requests are stored as +Inf, so a percentile
// that reaches into the failures reads +Inf: a failed request misses every
// latency limit.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// tailPercentiles are the tail points a timing may be reported at.
var tailPercentiles = []float64{0.90, 0.99, 0.999}

// highestSupported picks the highest tail percentile that still has at
// least ten samples beyond it; with fewer than 100 samples no tail is
// supported and it returns the median (0.5).
func highestSupported(n int) float64 {
	best := 0.5
	for _, p := range tailPercentiles {
		if float64(n)*(1-p) >= 10-1e-9 { // 100*(1-0.9) is 9.999... in floating point
			best = p
		}
	}
	return best
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	switch {
	case n == 0:
		return math.NaN()
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) does (exclusive method), which is what
// the acceptance procedure for this benchmark uses.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return math.NaN(), math.NaN()
	}
	at := func(k int) float64 {
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(k*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}
